package vm

// Machine.Reset: the pooled-serving lifecycle. A reset machine must be
// observably identical to a freshly constructed one — same Cycles, Steps,
// Output, traps and HeapGlobalsHash on any program — while reusing every
// backing allocation it can (address-space pages, shadow blocks, frame
// records, allocation records, map buckets), so a pooled request runs with
// near-zero steady-state allocation. The differential suite in
// serve_test.go pins the equivalence; TestResetCoversAllFields below pins
// that no Machine field can be added without deciding its reset rule.

// allocPoolCap bounds the recycled allocation-record pool harvested by
// Reset (records are 40 bytes; the cap only guards pathological runs).
const allocPoolCap = 4096

// resetRules names every Machine field together with how Reset restores
// it. The reflection test walks Machine's fields and fails on any field
// missing here: adding state without deciding whether it must be cleared,
// reseeded, recomputed or kept is exactly the stale-state-across-reuse bug
// class pooling must exclude.
var resetRules = map[string]string{
	"cfg":  "immutable: the machine's configuration",
	"prog": "immutable: shared program",
	"code": "immutable: shared predecoded Code",

	"mem":  "mem.Reset(): all mappings dropped, page frames recycled",
	"safe": "mem.Reset(): all mappings dropped, page frames recycled",
	"enf":  "enforcer.reset() when non-nil (nil stays nil): metadata cleared in place, counters zeroed; secrets redrawn by load()",
	"caps": "immutable: fixed at construction with the enforcer",

	"frames":     "truncated to 0; records recycled by newFrame (NeedsRegClear guards stale registers)",
	"cur":        "nil until the next Run pushes the entry frame",
	"cycles":     "zeroed",
	"steps":      "zeroed",
	"dispatches": "zeroed",

	"blockSteps":   "zeroed",
	"blockEntries": "zeroed",
	"extraDisp":    "zeroed",
	"out":          "bytes.Buffer Reset (capacity retained)",
	"rng":          "seeded from cfg.Seed by start(), as in NewShared",

	"slideCode":   "zeroed; load() redraws under ASLR/PIE",
	"slideData":   "zeroed; load() redraws under ASLR/PIE",
	"slideStack":  "zeroed; load() redraws under ASLR",
	"slideHeap":   "zeroed; load() redraws under ASLR",
	"finfo":       "kept: config-derived and slide-independent",
	"stackFloor":  "recomputed by load()",
	"canary":      "redrawn by load() from the reseeded rng",
	"ptrGuard":    "redrawn by load() from the reseeded rng",
	"safeBaseSec": "redrawn by load() from the reseeded rng",

	"sp":  "recomputed by load()",
	"ssp": "recomputed by load()",

	"heapBrk":   "recomputed by load()",
	"allocs":    "records harvested into allocPool, map cleared in place",
	"nextID":    "zeroed",
	"freeLst":   "per-size lists truncated in place (backing arrays kept)",
	"allocPool": "kept: it IS the cross-reset recycling pool",

	"freeDouble":    "zeroed",
	"freeUntracked": "zeroed",

	"hooks": "nil, as constructed (SetHook re-registers per run)",

	"safeMetaW": "cleared through cap then truncated (setSafeMeta grows within cap assuming zeros)",
	"safeMetaU": "map cleared in place",

	"spsDirty":   "set true by start(), as in NewShared",
	"minSp":      "re-latched by load()",
	"minSsp":     "re-latched by load()",
	"memStats":   "zeroed (Globals recomputed by load())",
	"heapLive":   "zeroed",
	"exitCode":   "zeroed",
	"trap":       "nil",
	"randState":  "seeded from cfg.Seed by start(), as in NewShared",
	"stepBudget": "restored to cfg.MaxSteps by start(), as in NewShared",

	"strBuf": "kept: scratch, dead between intrinsic calls",
	"fmtBuf": "kept: scratch, dead between intrinsic calls",
}

// Reset returns the machine to the state NewShared(prog, code, cfg) would
// construct, reusing backing storage in place: it clears what a run leaves
// behind and then runs start(), NewShared's own seeding and layout. The
// PRNG reseeds from cfg.Seed, so even an ASLR machine reproduces its own
// slides, canary and pointer guard — a reset machine replays a fresh
// machine's run bit for bit. On error the machine is not reusable and must
// be dropped.
func (m *Machine) Reset() error {
	// Volatile execution state.
	m.frames = m.frames[:0]
	m.cur = nil
	m.cycles, m.steps, m.dispatches = 0, 0, 0
	m.blockSteps, m.blockEntries, m.extraDisp = 0, 0, 0
	m.out.Reset()
	m.trap = nil
	m.exitCode = 0
	m.hooks = nil

	// Layout state load() recomputes (finfo is kept; see resetRules).
	m.slideCode, m.slideData, m.slideStack, m.slideHeap = 0, 0, 0, 0
	m.canary, m.ptrGuard, m.safeBaseSec = 0, 0, 0
	m.stackFloor, m.sp, m.ssp, m.heapBrk = 0, 0, 0, 0

	// Heap bookkeeping: harvest allocation records for malloc to recycle,
	// truncate the per-size free lists keeping their backing arrays.
	for _, a := range m.allocs {
		if len(m.allocPool) >= allocPoolCap {
			break
		}
		m.allocPool = append(m.allocPool, a)
	}
	clear(m.allocs)
	m.nextID = 0
	for sz, lst := range m.freeLst {
		m.freeLst[sz] = lst[:0]
	}
	m.heapLive = 0
	m.freeDouble, m.freeUntracked = 0, 0

	// Address spaces and the enforcement backend's metadata, cleared in
	// place with their backing storage recycled.
	m.mem.Reset()
	m.safe.Reset()
	if m.enf != nil {
		m.enf.reset()
	}

	// Safe-space metadata shadows. setSafeMeta extends safeMetaW within cap
	// assuming the extension region is zero, so the whole cap is cleared —
	// a plain truncation would leave stale metadata resurrectable.
	clear(m.safeMetaW[:cap(m.safeMetaW)])
	m.safeMetaW = m.safeMetaW[:0]
	clear(m.safeMetaU)

	// Peak accounting; load() re-latches the stack low-water marks.
	m.minSp, m.minSsp = 0, 0
	m.memStats = MemStats{}

	return m.start()
}
