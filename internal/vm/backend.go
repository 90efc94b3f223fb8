package vm

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/sps"
)

// The runtime half of the protection selector. Config.Protect fixes, in
// newEnforcer, the one enforcer a machine owns and its capabilities:
// vanilla, safestack and cfi machines hold a nil enforcer and never reach a
// hook; cps, cpi and softbound get the safe-region enforcer in the matching
// mode (which also backs the audit oracle and the temporal sweep); pac gets
// the MAC-authenticate-in-place enforcer (pac.go). The check paths
// (memops.go, setjmp.go, intrinsics.go, calls.go) gate on m.enf != nil or
// on the capabilities fixed at construction (enfCaps), and dispatch
// protected accesses through the hooks.

// enfCaps are the protection capabilities of a machine, fixed at
// construction by newEnforcer. Vanilla machines hold the zero value.
type enfCaps struct {
	// safeStack places return addresses and proven-safe frame objects on
	// the isolated safe stack (§3.2.4). Without it, everything including
	// return addresses lives on the regular stack.
	safeStack bool
	// cfi checks indirect-call and return targets against statically
	// valid sets (coarse-grained, merged target sets, as in [53, 54]).
	cfi bool
	// active is the set of flag bits that route a word-sized load/store
	// (and a setjmp, when transfers is set) through the enforcer.
	active ir.Prot
	// check is the set of flag bits that demand a dereference check.
	check ir.Prot
	// transfers says setjmp/longjmp resume addresses and indirect-call
	// targets are vetted through the enforcer (softbound does not).
	transfers bool
	// boundsGEP says pointer arithmetic pays SoftBound's metadata
	// propagation cost.
	boundsGEP bool
	// trap is the violation the enforcer raises.
	trap TrapKind
}

// enforcer is the per-backend runtime hook set. Hooks are only invoked on
// operations the instrumentation flagged with one of the enforcer's active
// bits, so the plain fast paths never pay for the indirection.
type enforcer interface {
	// seed draws per-machine secrets from the layout PRNG. load() calls it
	// after the canary/pointer-guard/safe-base draws, so backends needing
	// no secret leave the pre-existing draw stream untouched.
	seed(m *Machine)
	// loadProt handles a flagged word-sized load from the regular region
	// (the caller resolved addr and guarded size==8 && !onSafe). It fills
	// f.regs[dst]/f.meta[dst] and returns false if the machine trapped.
	loadProt(m *Machine, f *frame, addr uint64, dst int32, universal bool) bool
	// storeProt handles the metadata half of a flagged word-sized store
	// and returns the word the regular region should hold (the pac
	// enforcer transforms it; the safe-region one stores metadata aside
	// and returns it unchanged).
	storeProt(m *Machine, addr, val uint64, valMeta Meta, flags ir.Prot) uint64
	// setjmpSave protects the resume address of a flagged setjmp after
	// the raw jmp_buf words have been written.
	setjmpSave(m *Machine, buf, siteAddr uint64)
	// longjmpResume recovers the protected resume address of a jmp_buf;
	// ok=false means the machine trapped.
	longjmpResume(m *Machine, buf uint64) (resume uint64, ok bool)
	// initEntry seeds protection state for one pointer-valued global
	// initializer word (the loader is trusted, §2).
	initEntry(m *Machine, addr uint64, e sps.Entry)
	// copyRange, clearRange and dropRange are the safe-variant intrinsic
	// hooks: metadata migration for memcpy/memmove, invalidation for
	// memset, and free()-time bulk invalidation of a deallocated region.
	copyRange(m *Machine, dst, src uint64, words int)
	clearRange(m *Machine, base uint64, words int)
	dropRange(m *Machine, base uint64, words int)
	// sampleMem folds the backend's metadata footprint into the peak
	// memory statistics (§5.2).
	sampleMem(ms *MemStats)
	// finishStats surfaces backend counters in the Result.
	finishStats(r *Result)
	// reset returns the enforcer to its freshly constructed state (pooled
	// serving; secrets are redrawn by the load() that follows).
	reset()
}

// newEnforcer builds the enforcer and capabilities cfg.Protect selects;
// protections without a pointer-integrity enforcer get a nil one.
func newEnforcer(cfg Config) (enforcer, enfCaps, error) {
	switch cfg.Protect {
	case backend.Vanilla:
		return nil, enfCaps{}, nil
	case backend.SafeStack:
		return nil, enfCaps{safeStack: true}, nil
	case backend.CFI:
		return nil, enfCaps{cfi: true}, nil
	case backend.CPS:
		return &srEnforcer{sps: sps.New(cfg.SPS), codeOnly: true},
			enfCaps{safeStack: true, active: ir.ProtCPS, transfers: true, trap: TrapCPSViolation}, nil
	case backend.CPI:
		return &srEnforcer{sps: sps.New(cfg.SPS)},
			enfCaps{safeStack: true, active: ir.ProtCPIStore | ir.ProtCPILoad, check: ir.ProtCPICheck,
				transfers: true, trap: TrapCPIViolation}, nil
	case backend.SoftBound:
		return &srEnforcer{sps: sps.New(cfg.SPS)},
			enfCaps{active: ir.ProtSB, check: ir.ProtSBCheck, boundsGEP: true, trap: TrapSBViolation}, nil
	case backend.PAC:
		bits := cfg.PacBits
		if bits == 0 {
			bits = pacDefaultBits
		}
		if bits < 1 || bits > pacMaxBits {
			return nil, enfCaps{}, fmt.Errorf("vm: PacBits %d out of range [1,%d]", bits, pacMaxBits)
		}
		return &pacEnforcer{bits: uint(bits), mask: uint64(1)<<bits - 1},
			enfCaps{safeStack: true, active: ir.ProtCPS, transfers: true, trap: TrapPacViolation}, nil
	}
	return nil, enfCaps{}, fmt.Errorf("vm: unknown protection %v", cfg.Protect)
}

// spsStore returns the safe pointer store when the safe-region enforcer is
// active and nil otherwise. The safe-region-only subsystems — the audit
// oracle, the temporal sweep, the white-box tests — reach the store through
// it; backend-generic code must go through the enforcer hooks instead.
func (m *Machine) spsStore() sps.Store {
	if s, ok := m.enf.(*srEnforcer); ok {
		return s.sps
	}
	return nil
}

// ---- safe-region enforcer (§3.2.2) ----

// srEnforcer owns the safe pointer store: the isolated map from a
// sensitive pointer's regular-region address to its protected value and
// based-on metadata. It serves cps, cpi and softbound; the machine's
// enfCaps carry the mode's activation bits and trap kind.
type srEnforcer struct {
	sps sps.Store
	// codeOnly is CPS's store rule: only values with code provenance enter
	// the safe store.
	codeOnly bool
}

func (s *srEnforcer) seed(*Machine) {}

func (s *srEnforcer) loadProt(m *Machine, f *frame, addr uint64, dst int32, universal bool) bool {
	m.cycles += s.sps.LoadCost()
	e, ok := s.sps.Get(addr)
	switch {
	case ok && e.Valid():
		if m.cfg.DebugDualStore {
			raw, err := m.mem.Load(addr, 8)
			if err == nil && raw != e.Value {
				m.trapf(m.caps.trap, addr, ViaNone,
					"dual-store mismatch: regular %#x vs safe %#x", raw, e.Value)
				return false
			}
			m.cycles += m.cfg.Cost.Load
		}
		f.regs[dst] = e.Value
		f.meta[dst] = metaFromEntry(e)
	case universal:
		// Universal pointer without a valid safe entry: regular load
		// (§3.2.2), invalid metadata.
		v, err := m.mem.Load(addr, 8)
		if err != nil {
			m.memFault(err)
			return false
		}
		m.cycles += m.cfg.Cost.Load
		f.regs[dst] = v
		f.meta[dst] = invalidMeta
	default:
		// A sensitive pointer location that no instrumented store ever
		// wrote: yields an unusable value, so corruption planted by
		// non-instrumented writes is "silently prevented" (§3.2.2).
		f.regs[dst] = 0
		f.meta[dst] = invalidMeta
	}
	return true
}

func (s *srEnforcer) storeProt(m *Machine, addr, val uint64, valMeta Meta, flags ir.Prot) uint64 {
	m.cycles += s.sps.StoreCost()
	m.spsDirty = true
	switch {
	case s.codeOnly:
		// CPS: only values with code provenance enter the safe store
		// (§3.3 guarantee (i): code pointers can only be stored by
		// code pointer stores, and only from legitimate code values).
		// Storing any other value invalidates the slot rather than
		// laundering it.
		if valMeta.Kind == sps.KindCode {
			s.sps.Set(addr, entryFromMeta(val, valMeta))
		} else {
			s.sps.Delete(addr)
		}
	case valMeta.Kind != sps.KindInvalid:
		s.sps.Set(addr, entryFromMeta(val, valMeta))
	case flags&ir.ProtAnnotated != 0:
		// Programmer-annotated sensitive data (§3.2.1): the value
		// itself is protected; bounds degenerate to "any" since the
		// value is not used as a pointer.
		s.sps.Set(addr, sps.Entry{Value: val, Upper: ^uint64(0), Kind: sps.KindData})
	default:
		// A universal pointer holding a regular value lives in the regular
		// region only, and a sensitive pointer store of a value with
		// invalid metadata (e.g. forged from an integer) must leave an
		// unusable pointer rather than attacker data: either way no stale
		// safe entry may survive (§3.2.2 invalid metadata rule).
		s.sps.Delete(addr)
	}
	return val
}

func (s *srEnforcer) setjmpSave(m *Machine, buf, siteAddr uint64) {
	m.cycles += s.sps.StoreCost()
	m.spsDirty = true
	s.sps.Set(buf, sps.Entry{Value: siteAddr, Lower: siteAddr,
		Upper: siteAddr, Kind: sps.KindCode})
}

func (s *srEnforcer) longjmpResume(m *Machine, buf uint64) (uint64, bool) {
	m.cycles += s.sps.LoadCost()
	e, ok := s.sps.Get(buf)
	if !ok || e.Kind != sps.KindCode {
		m.trapf(m.caps.trap, buf, ViaLongjmp,
			"longjmp buffer without protected resume address")
		return 0, false
	}
	return e.Value, true
}

func (s *srEnforcer) initEntry(m *Machine, addr uint64, e sps.Entry) {
	s.sps.Set(addr, e)
}

func (s *srEnforcer) copyRange(m *Machine, dst, src uint64, words int) {
	// Each covered word pays the probe of the source slot (a safe-store
	// load) and the Set/Delete of the destination slot (a safe-store
	// store), on top of the per-word bookkeeping.
	m.cycles += int64(words) * (m.cfg.Cost.SafeIntrWord + s.sps.LoadCost() + s.sps.StoreCost())
	m.spsDirty = true
	// The store-level bulk move is overlap-safe (snapshot-equivalent),
	// matching the memmove-safe byte copy the caller already performed,
	// and large protected copies stop going word-by-word through the
	// generic Get/Set.
	s.sps.CopyRange(dst, src, words)
}

func (s *srEnforcer) clearRange(m *Machine, base uint64, words int) {
	// memset performs no source probe, but every covered word's Delete
	// is a safe-store write and is charged as one.
	m.cycles += int64(words) * (m.cfg.Cost.SafeIntrWord + s.sps.StoreCost())
	m.spsDirty = true
	s.sps.DeleteRange(base, words)
}

func (s *srEnforcer) dropRange(m *Machine, base uint64, words int) {
	units := s.sps.DropPages(base, words)
	m.cycles += m.cfg.Cost.DropBase + int64(units)*(m.cfg.Cost.DropUnit+s.sps.StoreCost())
	m.spsDirty = true
}

func (s *srEnforcer) sampleMem(ms *MemStats) {
	if b := s.sps.FootprintBytes(); b > ms.SPSBytes {
		ms.SPSBytes = b
	}
	if n := int64(s.sps.Len()); n > ms.SPSEntries {
		ms.SPSEntries = n
	}
}

func (s *srEnforcer) finishStats(*Result) {}

func (s *srEnforcer) reset() { s.sps.Reset() }
