package vm

import (
	"repro/internal/ir"
	"repro/internal/sps"
)

// This file implements the load/store semantics of §3.2.2 and Appendix A:
//
//   - flagged stores place the pointer value and its based-on metadata in
//     the safe pointer store (keyed by the pointer's regular-region
//     address); the regular-region copy is also written but "remains
//     unused" for protected loads (Fig. 2);
//   - flagged loads read value+metadata from the safe pointer store;
//     attacker writes to the regular copy therefore have no effect;
//   - universal-pointer accesses consult the safe store conditionally on
//     metadata validity;
//   - dereferences through sensitive pointers are bounds-checked against
//     the metadata (ProtCPICheck / ProtSBCheck);
//   - SoftBound applies the same machinery to every pointer access.

// protMask is the set of flags that can activate protection semantics on a
// load or store under some enforcer. An access with none of them takes the
// plain fast path regardless of configuration: the enforcer's active and
// check bits are both subsets, so skipping them is config-independent and
// safe for the predecode-time handler choice.
const protMask = ir.ProtCPIStore | ir.ProtCPILoad | ir.ProtCPICheck |
	ir.ProtCPS | ir.ProtSB | ir.ProtSBCheck

// derefCheck applies the bounds/validity check for a dereference through a
// pointer with the given metadata (Appendix A: l' ∈ [b, e-sizeof(a)]).
// Direct frame/global operands were proven safe statically and are not
// checked (the instrumentation pass leaves them unflagged). A failed check
// raises the enforcer's trap.
func (m *Machine) derefCheck(addr uint64, size int64, meta Meta) bool {
	kind := m.caps.trap
	if kind == TrapSBViolation {
		m.cycles += m.cfg.Cost.SBCheck
	} else {
		m.cycles += m.cfg.Cost.CPICheck
	}
	if meta.Kind != sps.KindData {
		m.trapf(kind, addr, ViaNone, "dereference with invalid metadata")
		return false
	}
	if addr < meta.Lower || addr+uint64(size) > meta.Upper {
		m.trapf(kind, addr, ViaNone,
			"out-of-bounds access %#x+%d not in [%#x,%#x)", addr, size, meta.Lower, meta.Upper)
		return false
	}
	if m.cfg.TemporalSafety && meta.ID != 0 {
		if a := m.allocs[meta.Lower]; a != nil && (a.freed || a.id != meta.ID) {
			m.trapf(kind, addr, ViaNone, "temporal violation (use after free)")
			return false
		}
	}
	return true
}

// loadInto performs the load in whose address operand has already been
// resolved to (addr, ptrMeta, onSafe). regAddr says the address came from a
// register operand (direct frame/global operands were proven safe statically
// and are never bounds-checked). On success the pc advances by one; on a
// trap it does not. hLoad (dispatch.go) funnels every checked or audited
// load into this one implementation of the §3.2.2 semantics. An unflagged
// (audited) access matches neither enforcer mask — both are subsets of
// protMask — and ends in the plain tail.
func (m *Machine) loadInto(f *frame, in *PIns, addr uint64, ptrMeta Meta, onSafe, regAddr bool) {
	dst, size, flags := in.Dst, in.Size, in.Flags
	if m.cfg.AuditSensitive && !m.auditLoad(addr, onSafe, size, flags) {
		return
	}
	// Bounds check on the dereferenced pointer when flagged (direct
	// operands are statically safe).
	if flags&m.caps.check != 0 && regAddr && !m.derefCheck(addr, int64(size), ptrMeta) {
		return
	}
	if flags&m.caps.active != 0 && size == 8 && !onSafe {
		if m.enf.loadProt(m, f, addr, dst, flags&ir.ProtUniversal != 0) {
			f.pc++
		}
		return
	}
	m.loadPlainInto(f, addr, onSafe, dst, size)
}

// loadPlainInto is the plain tail of loadInto: a memory read with no
// protection semantics, which hLoadPlain calls directly for unflagged
// accesses.
func (m *Machine) loadPlainInto(f *frame, addr uint64, onSafe bool, dst int32, size uint8) {
	space := m.mem
	if onSafe {
		space = m.safe
	}
	var v uint64
	var err error
	if size == 8 {
		v, err = space.LoadWord(addr)
	} else {
		v, err = space.Load(addr, int(size))
	}
	if err != nil {
		m.memFault(err)
		return
	}
	m.cycles += m.cfg.Cost.Load
	f.regs[dst] = v
	if onSafe {
		f.meta[dst] = m.safeMetaAt(addr)
	} else {
		f.meta[dst] = invalidMeta
	}
	f.pc++
}

// storeFrom performs the store in whose address and value operands have
// already been resolved; regAddr and pc behaviour as in loadInto.
func (m *Machine) storeFrom(f *frame, in *PIns, addr uint64, ptrMeta Meta, onSafe, regAddr bool, val uint64, valMeta Meta) {
	size, flags := in.Size, in.Flags
	if m.cfg.AuditSensitive && !m.auditStore(addr, onSafe, size, flags, valMeta) {
		return
	}
	if flags&m.caps.check != 0 && regAddr && !m.derefCheck(addr, int64(size), ptrMeta) {
		return
	}
	if flags&m.caps.active != 0 && size == 8 && !onSafe {
		// The backend records the metadata half (safe-region enforcer) or
		// transforms the stored word itself (pac signs it in place).
		val = m.enf.storeProt(m, addr, val, valMeta, flags)
	}
	m.storePlainFrom(f, addr, onSafe, val, valMeta, size)
}

// storePlainSlow is the miss path of the segments' word-specialized plain
// store executors: the caller has already charged any SFI masking cost, so
// this performs only the store itself plus shadow-metadata and cost
// accounting.
func (m *Machine) storePlainSlow(f *frame, addr uint64, onSafe bool, val uint64, valMeta Meta, size uint8) {
	space := m.mem
	if onSafe {
		space = m.safe
	}
	if err := space.Store(addr, int(size), val); err != nil {
		m.memFault(err)
		return
	}
	if onSafe && size == 8 {
		m.setSafeMeta(addr, valMeta)
	}
	m.cycles += m.cfg.Cost.Store
	f.pc++
}

// storePlainFrom is the unflagged-store tail of storeFrom (see
// loadPlainInto).
func (m *Machine) storePlainFrom(f *frame, addr uint64, onSafe bool, val uint64, valMeta Meta, size uint8) {
	space := m.mem
	if onSafe {
		space = m.safe
	} else if m.cfg.Isolation == IsoSFI {
		m.cycles += m.cfg.Cost.SFIMask
	}
	var err error
	if size == 8 {
		err = space.StoreWord(addr, val)
	} else {
		err = space.Store(addr, int(size), val)
	}
	if err != nil {
		m.memFault(err)
		return
	}
	if onSafe && size == 8 {
		m.setSafeMeta(addr, valMeta)
	}
	m.cycles += m.cfg.Cost.Store
	f.pc++
}
