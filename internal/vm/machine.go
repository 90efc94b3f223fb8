// Package vm executes instrumented IR programs on a simulated 64-bit
// machine. It provides the runtime half of the Levee reproduction: the
// memory layout of Fig. 2 (code, regular region with heap/globals/unsafe
// stacks, safe region with safe stacks and the safe pointer store), the
// enforcement semantics of §3.2 (safe pointer store accesses, bounds checks,
// safe stack, isolation) and of the baseline defenses (DEP, ASLR, stack
// cookies, coarse-grained CFI, SoftBound), a deterministic cycle cost model,
// and the attacker interface implied by the §2 threat model (full control
// over regular process memory, no writes to the code segment).
package vm

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/sps"
)

// IsolationMode selects how the safe region is isolated (§3.2.3).
type IsolationMode uint8

// Isolation modes.
const (
	// IsoSegment models x86-32 segment-register protection: the safe
	// region is in a separate address space that regular accesses cannot
	// name at all.
	IsoSegment IsolationMode = iota
	// IsoInfoHide models x86-64 information hiding: the safe region base
	// is randomized in a 47-bit space and no pointer into it is ever
	// stored in regular memory; the attacker may guess (GuessSafeRegion).
	IsoInfoHide
	// IsoSFI models software fault isolation: same separation, plus a
	// masking cost on every regular memory operation.
	IsoSFI
)

var isoNames = [...]string{"segment", "infohide", "sfi"}

// String names the isolation mode.
func (m IsolationMode) String() string {
	if int(m) >= len(isoNames) {
		return fmt.Sprintf("IsolationMode(%d)", m)
	}
	return isoNames[m]
}

// Config controls the runtime protection behaviour. The instruction-level
// flags (which loads/stores use the safe pointer store) come from the
// instrumentation passes; Config controls the runtime mechanisms.
type Config struct {
	// StackCookies places a canary between locals and the return address
	// on the regular stack.
	StackCookies bool
	// DEP makes data pages non-executable.
	DEP bool
	// ASLR randomizes the stack and heap bases. Code and globals stay
	// fixed unless PIE is also set, matching the era's non-PIE default
	// (RIPE's surviving attacks on hardened systems target exactly those
	// fixed segments).
	ASLR bool
	// PIE additionally randomizes the executable's code and data segments
	// (position-independent executable).
	PIE bool
	// Fortify bounds-checks the libc copy functions against the
	// destination object when its extent is known (glibc
	// _FORTIFY_SOURCE=2 semantics: the *_chk family).
	Fortify bool
	// PtrMangle XORs the resume address stored by setjmp with a secret
	// per-process guard (glibc PTR_MANGLE), so raw addresses written into
	// a jmp_buf demangle to garbage.
	PtrMangle bool
	// Isolation selects the safe-region isolation mechanism.
	Isolation IsolationMode
	// DebugDualStore stores protected pointers in both regions and traps
	// on mismatch at load (§3.2.2 debug mode).
	DebugDualStore bool
	// TemporalSafety enables CETS-style temporal id checks (the §4
	// "can be easily extended" extension; off by default, like Levee).
	// The check runs in the dereference check, so only cpi and softbound
	// accept it; NewShared refuses it under any other protection.
	TemporalSafety bool
	// AuditSensitive turns the run into a dynamic soundness oracle for the
	// static sensitivity classification (see audit.go): every uninstrumented
	// word-sized memory operation is checked against code-pointer provenance
	// and the run traps with TrapAuditSensitive on a miss. NewShared
	// requires code predecoded with AuditHooks (New and
	// core.Program.Predecoded set it up).
	AuditSensitive bool

	// Protect is the one protection selector (see backend.go). It fixes
	// the pointer-integrity enforcer — the safe pointer store semantics of
	// cps/cpi (§3.3/§3.2) on accesses flagged by that pass, full memory
	// safety for softbound's ProtSB accesses, or pac's in-place signed code
	// pointers (pac.go) — and whether the safe stack (§3.2.4) and coarse
	// CFI checks are on. An out-of-range value is a construction error.
	Protect backend.Protection
	// PacBits is the MAC field width for the pac backend (0 = default 16).
	// The modeled forgery probability is 2^-PacBits.
	PacBits int

	// SPS selects the safe pointer store organisation of cps, cpi and
	// softbound machines: array (the default, also ""), twolevel or hash,
	// charged at CostModel's SPSArray, SPSTwoLevel or SPSHash. Any other
	// name is a construction error.
	SPS string
	// Cost is the cycle model; zero value means DefaultCosts.
	Cost CostModel

	// Seed drives ASLR slides, canary values and rand().
	Seed int64
	// Input is the attacker-controlled input returned by read_input().
	Input []byte
	// MaxSteps bounds execution (0 = default 200M).
	MaxSteps int64
}

// maxCallDepth bounds recursion: a call that would nest deeper traps with
// TrapStackOverflow.
const maxCallDepth = 4096

// Memory layout constants (pre-ASLR bases). Bases are chosen so that code
// and data addresses have no NUL bytes in their low four bytes: like
// real-world exploit targets, string-copy overflows must be able to carry
// the payload address (RIPE faces the same constraint).
const (
	codeBase   = 0x0101_0140
	funcStride = 0x100
	retSiteOff = 0x0010_0000 // return-site addresses within the code segment
	jmpSiteOff = 0x0018_0000 // setjmp-site addresses
	codeSize   = 0x0020_0000

	rodataBase = 0x0160_0140
	globalBase = 0x0180_0140
	heapBase   = 0x0240_0140
	heapMax    = 0x0800_0000
	stackTop   = 0x7fff_0140
	stackMax   = 0x0040_0000 // 4 MiB regular stack

	safeStackTop = 0x5afe_0000_0000 // in the safe address space
)

// frameInfo is the per-function frame layout under the machine's
// configuration, computed once at load so pushFrame does no per-call layout
// arithmetic.
type frameInfo struct {
	objBytes     uint64 // object bytes on the regular stack
	regularTotal uint64 // regular-stack bytes incl. cookie/return slots
	safeTotal    uint64 // safe-stack bytes (0 without SafeStack)
	cookie       bool   // a canary word precedes the return slot
	retOnSafe    bool   // the return address lives on the safe stack
}

// allocation tracks one heap object.
type allocation struct {
	addr  uint64
	size  int64
	id    uint64
	freed bool
}

// frame is one activation record. Records are recycled in place in the
// frames stack's backing array (see Machine.newFrame): a call at depth d
// reuses the record — and usually the function, on recursive chains — of
// the previous depth-d activation instead of allocating per call.
type frame struct {
	fn   *ir.Func
	code *FuncCode // predecoded function record of fn
	ins  []PIns    // code.Ins, cached flat for the dispatch loop
	fidx int
	regs []uint64
	meta []Meta
	pc   int // index into ins

	regBase  uint64 // base of this frame's objects on the regular stack
	safeBase uint64 // base of this frame's objects on the safe stack
	regSize  uint64 // total regular-stack bytes consumed
	safeSize uint64 // total safe-stack bytes consumed

	retSlot    uint64 // where the return address word is stored
	retOnSafe  bool   // retSlot is in the safe address space
	canaryAddr uint64 // 0 when no cookie
	retAddr    uint64 // true (shadow) return address
	retPC      int    // caller pc to resume at (-1 for the entry frame)
	dst        int    // caller register for the return value
}

// Meta is the based-on metadata carried alongside register values (§3.1):
// bounds of the target object, a temporal id, and a provenance kind.
type Meta struct {
	Kind  sps.Kind
	Lower uint64
	Upper uint64
	ID    uint64
}

// invalidMeta is the metadata of non-pointer or unknown values (the zero
// Meta: KindInvalid is 0).
var invalidMeta = Meta{Kind: sps.KindInvalid}

// safeMetaAt returns the shadow metadata for the safe-space word at addr
// (the zero Meta when absent).
func (m *Machine) safeMetaAt(addr uint64) Meta {
	if addr&7 == 0 {
		if slot := (uint64(safeStackTop) - 8 - addr) >> 3; slot < uint64(len(m.safeMetaW)) {
			return m.safeMetaW[slot]
		}
		return Meta{}
	}
	return m.safeMetaU[addr]
}

// setSafeMeta records shadow metadata for the safe-space word at addr;
// invalid metadata clears the slot (its bounds are never consulted, so it
// normalizes to the zero Meta).
func (m *Machine) setSafeMeta(addr uint64, meta Meta) {
	if meta.Kind == sps.KindInvalid {
		meta = Meta{}
	}
	if addr&7 == 0 {
		slot := (uint64(safeStackTop) - 8 - addr) >> 3
		if slot >= uint64(len(m.safeMetaW)) {
			if meta == (Meta{}) {
				return // absent stays absent
			}
			n := int(slot) + 1
			if n <= cap(m.safeMetaW) {
				m.safeMetaW = m.safeMetaW[:n]
			} else {
				grown := make([]Meta, n, n*2)
				copy(grown, m.safeMetaW)
				m.safeMetaW = grown
			}
		}
		m.safeMetaW[slot] = meta
		return
	}
	if meta == (Meta{}) {
		delete(m.safeMetaU, addr)
		return
	}
	if m.safeMetaU == nil {
		m.safeMetaU = map[uint64]Meta{}
	}
	m.safeMetaU[addr] = meta
}

func metaFromEntry(e sps.Entry) Meta {
	return Meta{Kind: e.Kind, Lower: e.Lower, Upper: e.Upper, ID: e.ID}
}

func entryFromMeta(v uint64, m Meta) sps.Entry {
	return sps.Entry{Value: v, Lower: m.Lower, Upper: m.Upper, ID: m.ID, Kind: m.Kind}
}

// Machine executes one program instance.
type Machine struct {
	cfg  Config
	prog *ir.Program
	code *Code // predecoded program, shared across machines

	mem  *mem.Memory // regular region (+code, rodata)
	safe *mem.Memory // safe region (safe stacks)
	enf  enforcer    // pointer-integrity enforcer (cfg.Protect); nil for vanilla, safestack, cfi

	frames []*frame
	// cur caches frames[len(frames)-1]: the dispatch loop reads the top
	// frame every step, so push/pop/longjmp maintain it instead.
	cur    *frame
	cycles int64
	steps  int64
	// dispatches counts dispatch round trips (loop iterations plus segment
	// trampoline hops); steps-dispatches is the number of constituent
	// executions block compilation absorbed.
	dispatches int64
	// Block-compilation accounting (blocks.go): constituents executed
	// inside compiled segments, segment activations (each activation pays
	// exactly one dispatch), and trampoline hops — dispatches charged by
	// the segment runner itself rather than the loop.
	blockSteps   int64
	blockEntries int64
	extraDisp    int64
	out          bytes.Buffer
	rng          uint64

	// Layout. Function entries, return sites, setjmp sites, globals and
	// strings all have addresses of the form base + slide + f(ordinal), with
	// the ordinal tables shared in Code, so the per-machine state is just the
	// four slides (see funcAddr/retSiteAddr/jmpSiteAddr/globalAddr/strAddr
	// and their reverses).
	slideCode   uint64
	slideData   uint64
	slideStack  uint64
	slideHeap   uint64
	finfo       []frameInfo // per-function frame layout under this config
	stackFloor  uint64      // lowest valid regular stack address
	canary      uint64
	ptrGuard    uint64 // PTR_MANGLE secret
	safeBaseSec uint64 // secret safe-region base (info hiding)

	sp  uint64 // regular stack pointer
	ssp uint64 // safe stack pointer

	heapBrk uint64
	allocs  map[uint64]*allocation // by address
	nextID  uint64
	freeLst map[int64][]uint64 // size -> addresses (enables reuse/UAF)
	// allocPool recycles allocation records across Reset: a pooled machine's
	// malloc pops here instead of allocating (free keeps records in allocs
	// for temporal checks, so within-run recycling is impossible).
	allocPool []*allocation

	// Heap-misuse counters (double frees / untracked-address frees seen at
	// free sites under the protected configurations), surfaced in Result.
	freeDouble    int64
	freeUntracked int64

	// hooks are driver callbacks invoked when a function is entered; the
	// attack harness uses them to model the §2 attacker acting at a chosen
	// moment (e.g. between setup and dispatch).
	hooks map[int]func(*Machine)

	// safeMetaW shadows based-on metadata for aligned words of the safe
	// address space, indexed by word offset below safeStackTop (the stack
	// grows down, so the slice grows with peak safe-stack depth). The safe
	// stack holds spilled registers and proven-safe locals (§3.2.4); their
	// metadata is compiler-managed state that needs no runtime
	// representation, so the shadow models it at zero cycle cost. It is
	// not addressable by the program or the attacker. The zero Meta is
	// "absent" (invalidMeta is the zero value). Unaligned safe-space word
	// accesses — which mini-C programs do not generate — fall back to
	// safeMetaU.
	safeMetaW []Meta
	safeMetaU map[uint64]Meta

	// Peak memory accounting. spsDirty marks that the safe pointer store
	// was mutated since the last peak sample, so updateMemPeaks only pays
	// the two Store interface calls when the answer can have changed.
	// Stack peaks are tracked as low-water marks of the two stack
	// pointers (one compare each) and folded into memStats at finish.
	spsDirty   bool
	minSp      uint64
	minSsp     uint64
	memStats   MemStats
	heapLive   int64
	exitCode   int64
	trap       *Trap
	randState  uint64
	stepBudget int64

	caps enfCaps // the enforcer's capabilities, fixed at construction

	// Scratch for the string intrinsics: C strings read from memory and
	// the printf family's output, reused across calls.
	strBuf []byte
	fmtBuf []byte
}

// New prepares a machine for the given instrumented program, predecoding it
// first (with AuditHooks under Config.AuditSensitive). Callers running the
// same program on many machines should predecode once and use NewShared.
func New(p *ir.Program, cfg Config) (*Machine, error) {
	return NewShared(p, PredecodeWith(p, PredecodeOptions{AuditHooks: cfg.AuditSensitive}), cfg)
}

// NewShared prepares a machine around an already-predecoded program. The
// Code must have been produced by Predecode from the same ir.Program (with
// AuditHooks under Config.AuditSensitive); it is read-only and may be
// shared by any number of concurrent machines.
func NewShared(p *ir.Program, code *Code, cfg Config) (*Machine, error) {
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCosts()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}
	if cfg.AuditSensitive && !code.AuditHooks {
		return nil, errors.New("vm: AuditSensitive needs code predecoded with AuditHooks (without them, plain accesses skip the audit checks)")
	}
	if int(cfg.Isolation) >= len(isoNames) {
		return nil, fmt.Errorf("vm: unknown isolation %v", cfg.Isolation)
	}
	enf, caps, err := newEnforcer(cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     cfg,
		prog:    p,
		code:    code,
		mem:     mem.New(),
		safe:    mem.New(),
		enf:     enf,
		caps:    caps,
		allocs:  map[uint64]*allocation{},
		freeLst: map[int64][]uint64{},
	}
	if err := m.start(); err != nil {
		return nil, err
	}
	return m, nil
}

// start seeds the PRNGs and budgets from the configuration and lays out
// the address space: the initialization NewShared and Reset share.
func (m *Machine) start() error {
	m.rng = uint64(m.cfg.Seed)*0x9E3779B97F4A7C15 + 0x7263_6970
	m.randState = uint64(m.cfg.Seed)*6364136223846793005 + 1
	m.stepBudget = m.cfg.MaxSteps
	m.spsDirty = true
	return m.load()
}

// nextRand is a small deterministic PRNG for layout and canaries.
func (m *Machine) nextRand() uint64 {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return m.rng
}

// load lays out the address space and initializes memory.
func (m *Machine) load() error {
	if m.cfg.ASLR {
		// Page-aligned slides up to 16 MiB per segment group. Stack and
		// heap always move; code/globals only for PIE builds.
		m.slideStack = (m.nextRand() % 4096) * mem.PageSize
		m.slideHeap = (m.nextRand() % 4096) * mem.PageSize
		if m.cfg.PIE {
			m.slideCode = (m.nextRand() % 4096) * mem.PageSize
			m.slideData = (m.nextRand() % 4096) * mem.PageSize
		}
	}
	m.canary = m.nextRand() | 1 // never zero
	m.ptrGuard = m.nextRand() | 1
	m.safeBaseSec = (m.nextRand() % (1 << 46)) &^ (mem.PageSize - 1)
	// Backend secrets draw last so that backends needing none (the
	// safe-region enforcer) leave the established draw stream untouched.
	if m.enf != nil {
		m.enf.seed(m)
	}

	dataPerm := mem.R | mem.W
	if !m.cfg.DEP {
		dataPerm |= mem.X // without DEP, writable memory is executable
	}

	// Code segment: function entries, return sites, setjmp sites. Pages
	// are read-execute; the threat model (§2) guarantees code immutability.
	// Their addresses are pure ordinal arithmetic over the shared Code
	// tables, so no per-machine table is built.
	m.mem.Map(codeBase+m.slideCode, codeSize, mem.R|mem.X)

	// Read-only data: string literals at their predecoded offsets.
	if len(m.prog.Strings) > 0 {
		m.mem.Map(rodataBase+m.slideData, m.code.RodataBytes, mem.R)
		for i, s := range m.prog.Strings {
			addr := m.strAddr(i)
			if err := m.mem.ForceWriteString(addr, s); err != nil {
				return err
			}
			if err := m.mem.ForceStore(addr+uint64(len(s)), 1, 0); err != nil {
				return err
			}
		}
	}

	// Globals: contiguous, natural alignment (overflows between adjacent
	// globals are possible, as on a real ELF data/bss segment).
	if len(m.prog.Globals) > 0 {
		m.mem.Map(globalBase+m.slideData, uint64(m.code.GlobalsBytes)+8, dataPerm)
	}
	m.memStats.Globals = m.code.GlobalsBytes
	if err := m.initGlobals(); err != nil {
		return err
	}

	// Heap.
	m.heapBrk = heapBase + m.slideHeap
	m.mem.Map(heapBase+m.slideHeap, mem.PageSize*16, dataPerm)

	// Regular stack.
	m.sp = stackTop - m.slideStack
	m.minSp = m.sp
	m.stackFloor = m.sp - stackMax
	m.mem.Map(m.sp-stackMax, stackMax, dataPerm)

	// Safe stack (separate address space; see DESIGN.md on isolation).
	m.ssp = safeStackTop
	m.minSsp = m.ssp
	m.safe.Map(m.ssp-stackMax, stackMax, mem.R|mem.W)

	// Frame layouts; see DESIGN.md §4 and pushFrame. Config-derived and
	// slide-independent, so a Reset keeps the table.
	if m.finfo != nil {
		return nil
	}
	m.finfo = make([]frameInfo, len(m.prog.Funcs))
	for i, fn := range m.prog.Funcs {
		fi := &m.finfo[i]
		if m.caps.safeStack {
			fi.objBytes = uint64(fn.UnsafeSize)
			fi.retOnSafe = true
			fi.safeTotal = uint64(fn.SafeSize) + 8 // + return address slot
		} else {
			fi.objBytes = uint64(fn.SafeSize + fn.UnsafeSize)
		}
		fi.regularTotal = fi.objBytes
		fi.cookie = m.cfg.StackCookies && !fi.retOnSafe
		if fi.cookie {
			fi.regularTotal += 8
		}
		if !fi.retOnSafe {
			fi.regularTotal += 8
		}
	}

	return nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

// funcAddr returns the code address of function index i.
func (m *Machine) funcAddr(i int) uint64 {
	return codeBase + m.slideCode + uint64(i)*funcStride
}

// funcIndexAt is the O(1) reverse of funcAddr: the function whose entry
// address is addr, if any. Return/setjmp-site offsets are ≥ retSiteOff,
// far above len(Funcs)*funcStride, so the index bound also rejects them.
func (m *Machine) funcIndexAt(addr uint64) (int, bool) {
	off := addr - (codeBase + m.slideCode) // wraps huge when addr < base
	if off%funcStride != 0 {
		return 0, false
	}
	i := off / funcStride
	if i >= uint64(len(m.prog.Funcs)) {
		return 0, false
	}
	return int(i), true
}

// retSiteAddr returns the return-site code address of call-site ordinal k.
func (m *Machine) retSiteAddr(k int32) uint64 {
	return codeBase + m.slideCode + retSiteOff + uint64(k)*16
}

// isRetSite reports whether addr is a valid return-site address — the
// membership test coarse CFI and hijack classification use.
func (m *Machine) isRetSite(addr uint64) bool {
	off := addr - (codeBase + m.slideCode + retSiteOff)
	return off%16 == 0 && off/16 < uint64(m.code.NumRetSites)
}

// jmpSiteAddr returns the code address of setjmp-site ordinal k.
func (m *Machine) jmpSiteAddr(k int32) uint64 {
	return codeBase + m.slideCode + jmpSiteOff + uint64(k)*16
}

// jmpSiteAt resolves a setjmp-site address back to its resume point in the
// shared table; ok=false means addr names no registered site.
func (m *Machine) jmpSiteAt(addr uint64) (JmpSite, bool) {
	off := addr - (codeBase + m.slideCode + jmpSiteOff)
	if off%16 != 0 || off/16 >= uint64(len(m.code.JmpSites)) {
		return JmpSite{}, false
	}
	return m.code.JmpSites[off/16], true
}

// globalAddr returns the data address of global index i.
func (m *Machine) globalAddr(i int) uint64 {
	return globalBase + m.slideData + m.code.GlobalOff[i]
}

// strAddr returns the rodata address of string literal i.
func (m *Machine) strAddr(i int) uint64 {
	return rodataBase + m.slideData + m.code.StrOff[i]
}

// initGlobals applies init items and pre-populates the safe pointer store
// for protected pointer-valued initializers (the loader is trusted, §2).
func (m *Machine) initGlobals() error {
	for gi, g := range m.prog.Globals {
		base := m.globalAddr(gi)
		for _, it := range g.Init {
			var v uint64
			var entry sps.Entry
			hasEntry := false
			switch it.Kind {
			case ir.InitConst:
				v = uint64(it.Val)
			case ir.InitFuncAddr:
				v = m.funcAddr(it.Index)
				entry = sps.Entry{Value: v, Lower: v, Upper: v, Kind: sps.KindCode}
				hasEntry = true
			case ir.InitGlobalAddr:
				tb := m.globalAddr(it.Index)
				v = tb + uint64(it.Val)
				entry = sps.Entry{Value: v, Lower: tb,
					Upper: tb + uint64(m.prog.Globals[it.Index].Size), Kind: sps.KindData}
				hasEntry = true
			case ir.InitStringAddr:
				tb := m.strAddr(it.Index)
				v = tb + uint64(it.Val)
				entry = sps.Entry{Value: v, Lower: tb,
					Upper: tb + uint64(len(m.prog.Strings[it.Index])+1), Kind: sps.KindData}
				hasEntry = true
			}
			if err := m.mem.ForceStore(base+uint64(it.Offset), int(it.Size), v); err != nil {
				return err
			}
			if !hasEntry && g.Annotated {
				// Annotated data (§3.2.1): the value itself is protected.
				entry, hasEntry = sps.Entry{Value: v, Upper: ^uint64(0), Kind: sps.KindData}, true
			}
			if hasEntry && m.enf != nil && it.Size == 8 {
				m.enf.initEntry(m, base+uint64(it.Offset), entry)
			}
		}
	}
	return nil
}

// FuncAddr returns the code address of the named function (the legitimate
// way programs and the attack harness obtain code addresses).
func (m *Machine) FuncAddr(name string) (uint64, bool) {
	for i, f := range m.prog.Funcs {
		if f.Name == name {
			return m.funcAddr(i), true
		}
	}
	return 0, false
}

// GlobalAddr returns the data address of the named global.
func (m *Machine) GlobalAddr(name string) (uint64, bool) {
	for i, g := range m.prog.Globals {
		if g.Name == name {
			return m.globalAddr(i), true
		}
	}
	return 0, false
}

// SetHook registers fn to run whenever the named function is entered
// (before its frame is set up). Used by attack drivers to act mid-run.
func (m *Machine) SetHook(name string, fn func(*Machine)) bool {
	for i, f := range m.prog.Funcs {
		if f.Name == name {
			if m.hooks == nil {
				m.hooks = map[int]func(*Machine){}
			}
			m.hooks[i] = fn
			return true
		}
	}
	return false
}

// Output returns the program's stdout so far.
func (m *Machine) Output() string { return m.out.String() }

// Cycles returns the cycle counter.
func (m *Machine) Cycles() int64 { return m.cycles }

// pcString renders the current location for diagnostics, mapping the flat
// pc back to the source (block, instruction) position.
func (m *Machine) pcString() string {
	if len(m.frames) == 0 {
		return "<start>"
	}
	f := m.frames[len(m.frames)-1]
	if f.pc < 0 || f.pc >= len(f.code.Ins) {
		return fmt.Sprintf("%s.<pc %d>", f.fn.Name, f.pc)
	}
	in := &f.code.Ins[f.pc]
	return fmt.Sprintf("%s.%d:%d", f.fn.Name, in.Blk, in.IP)
}

// updateMemPeaks refreshes peak memory statistics. Stack peaks are kept as
// stack-pointer low-water marks; finish converts them to byte peaks. The
// hot part (four compares) inlines into pushFrame; the safe-pointer-store
// sampling — two interface calls, needed only after a store mutated it —
// is outlined behind spsDirty.
func (m *Machine) updateMemPeaks() {
	if m.heapLive > m.memStats.HeapPeak {
		m.memStats.HeapPeak = m.heapLive
	}
	if m.sp < m.minSp {
		m.minSp = m.sp
	}
	if m.ssp < m.minSsp {
		m.minSsp = m.ssp
	}
	if m.spsDirty {
		m.sampleSPSPeaks()
	}
}

// notePushPeaks is the per-call subset of updateMemPeaks: a call can only
// move the stack low-water marks (and trip a pending safe-pointer-store
// sample), so pushFrame inlines these compares instead of the full
// refresh. The stack pointers are passed as arguments to keep the body
// under the inlining budget.
func (m *Machine) notePushPeaks(sp, ssp uint64) {
	if sp < m.minSp {
		m.minSp = sp
	}
	if ssp < m.minSsp {
		m.minSsp = ssp
	}
	if m.spsDirty {
		m.sampleSPSPeaks()
	}
}

func (m *Machine) sampleSPSPeaks() {
	m.spsDirty = false
	if m.enf != nil {
		m.enf.sampleMem(&m.memStats)
	}
}
