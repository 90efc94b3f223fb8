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
// load or store under some runtime configuration. An access with none of
// them takes the plain fast path regardless of configuration: protActive
// and derefCheck both require one of these bits, so skipping them is
// config-independent and safe for the predecode-time handler choice.
const protMask = ir.ProtCPIStore | ir.ProtCPILoad | ir.ProtCPICheck |
	ir.ProtCPS | ir.ProtSB | ir.ProtSBCheck

// protLoad reports whether the instruction's flags make this access use the
// safe pointer store under the active configuration.
func (m *Machine) protActive(fl ir.Prot) (useSPS, universal, check, cps bool) {
	c := &m.cfg
	switch {
	case c.SoftBound && fl&(ir.ProtSB) != 0:
		return true, fl&ir.ProtUniversal != 0, false, false
	case c.CPI && fl&(ir.ProtCPIStore|ir.ProtCPILoad) != 0:
		return true, fl&ir.ProtUniversal != 0, false, false
	case c.CPS && fl&ir.ProtCPS != 0:
		return true, fl&ir.ProtUniversal != 0, false, true
	case c.Backend != "" && fl&ir.ProtCPS != 0:
		// Non-safe-region backends reuse the ProtCPS/ProtUniversal flag
		// bits (same instrumented set, same predecode handler choice);
		// the enforcer hooks give them their own semantics.
		return true, fl&ir.ProtUniversal != 0, false, false
	}
	return false, false, false, false
}

// derefCheck applies the bounds/validity check for a dereference through a
// pointer with the given metadata (Appendix A: l' ∈ [b, e-sizeof(a)]).
// Direct frame/global operands were proven safe statically and are not
// checked (the instrumentation pass leaves them unflagged).
func (m *Machine) derefCheck(kind TrapKind, addr uint64, size int64, meta Meta) bool {
	if kind == TrapSBViolation {
		m.cycles += m.cfg.Cost.SBCheck
	} else {
		m.cycles += m.cfg.Cost.checkCost()
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

// checkTrapKind picks the violation trap for the active mechanism.
func (m *Machine) checkTrapKind(fl ir.Prot) TrapKind {
	if m.cfg.SoftBound && fl&(ir.ProtSB|ir.ProtSBCheck) != 0 {
		return TrapSBViolation
	}
	return TrapCPIViolation
}

// loadInto performs the load in whose address operand has already been
// resolved to (addr, ptrMeta, onSafe). regAddr says the address came from a
// register operand (direct frame/global operands were proven safe statically
// and are never bounds-checked). On success the pc advances by one; on a
// trap it does not. The general load handlers (dispatch.go) all funnel into
// this one implementation of the §3.2.2 semantics.
func (m *Machine) loadInto(f *frame, in *PIns, addr uint64, ptrMeta Meta, onSafe, regAddr bool) {
	dst, size, flags := in.Dst, in.Size, in.Flags
	if m.cfg.AuditSensitive && !m.auditLoad(addr, onSafe, size, flags) {
		return
	}
	if flags&protMask == 0 {
		// Plain access: no flag can activate checks or the safe pointer
		// store under any configuration. This is the overwhelmingly common
		// case even under CPI (only sensitive accesses are flagged), so
		// the plain tail is flattened here rather than delegated.
		space := m.mem
		if onSafe {
			space = m.safe
		}
		var v uint64
		if size == 8 {
			var hit bool
			if v, hit = space.TryLoadWord(addr); !hit {
				var err error
				if v, err = space.Load(addr, 8); err != nil {
					m.memFault(err)
					return
				}
			}
		} else {
			var err error
			if v, err = space.Load(addr, int(size)); err != nil {
				m.memFault(err)
				return
			}
		}
		m.cycles += m.cfg.Cost.Load
		f.regs[dst] = v
		if onSafe {
			f.meta[dst] = m.safeMetaAt(addr)
		} else {
			f.meta[dst] = invalidMeta
		}
		f.pc++
		return
	}
	cost := &m.cfg.Cost

	// Bounds check on the dereferenced pointer when flagged.
	if (m.cfg.CPI && flags&ir.ProtCPICheck != 0) ||
		(m.cfg.SoftBound && flags&ir.ProtSBCheck != 0) {
		if regAddr { // direct operands are statically safe
			if !m.derefCheck(m.checkTrapKind(flags), addr, int64(size), ptrMeta) {
				return
			}
		}
	}

	space := m.mem
	if onSafe {
		space = m.safe
	}

	useSPS, universal, _, cps := m.protActive(flags)
	if useSPS && size == 8 && !onSafe {
		if m.enf.loadProt(m, f, space, addr, dst, universal, cps) {
			f.pc++
		}
		return
	}

	v, err := space.Load(addr, int(size))
	if err != nil {
		m.memFault(err)
		return
	}
	m.cycles += cost.Load
	f.regs[dst] = v
	if onSafe {
		f.meta[dst] = m.safeMetaAt(addr)
	} else {
		f.meta[dst] = invalidMeta
	}
	f.pc++
}

// loadPlainInto is the unflagged-load tail of loadInto: a plain memory read
// with no protection semantics, observationally identical to the full path
// with every prot branch statically false.
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

func (m *Machine) violationKind(cps bool) TrapKind {
	if cps {
		return TrapCPSViolation
	}
	if m.cfg.SoftBound {
		return TrapSBViolation
	}
	return TrapCPIViolation
}

// storeFrom performs the store in whose address and value operands have
// already been resolved; regAddr and pc behaviour as in loadInto.
func (m *Machine) storeFrom(f *frame, in *PIns, addr uint64, ptrMeta Meta, onSafe, regAddr bool, val uint64, valMeta Meta) {
	size, flags := in.Size, in.Flags
	if m.cfg.AuditSensitive && !m.auditStore(addr, onSafe, size, flags, valMeta) {
		return
	}
	if flags&protMask == 0 {
		// Plain tail, flattened as in loadInto.
		space := m.mem
		if onSafe {
			space = m.safe
		} else if m.cfg.Isolation == IsoSFI {
			m.cycles += m.cfg.Cost.SFIMask
		}
		if size == 8 {
			if !space.TryStoreWord(addr, val) {
				if err := space.Store(addr, 8, val); err != nil {
					m.memFault(err)
					return
				}
			}
		} else {
			if err := space.Store(addr, int(size), val); err != nil {
				m.memFault(err)
				return
			}
		}
		if onSafe && size == 8 {
			m.setSafeMeta(addr, valMeta)
		}
		m.cycles += m.cfg.Cost.Store
		f.pc++
		return
	}
	cost := &m.cfg.Cost

	if (m.cfg.CPI && flags&ir.ProtCPICheck != 0) ||
		(m.cfg.SoftBound && flags&ir.ProtSBCheck != 0) {
		if regAddr {
			if !m.derefCheck(m.checkTrapKind(flags), addr, int64(size), ptrMeta) {
				return
			}
		}
	}

	space := m.mem
	if onSafe {
		space = m.safe
	} else if m.cfg.Isolation == IsoSFI {
		m.cycles += cost.SFIMask
	}

	useSPS, universal, _, cps := m.protActive(flags)
	if useSPS && size == 8 && !onSafe {
		// The backend records the metadata half (safe-region enforcer) or
		// transforms the stored word itself (pac signs it in place).
		val = m.enf.storeProt(m, addr, val, valMeta, flags, universal, cps)
	}

	if err := space.Store(addr, int(size), val); err != nil {
		m.memFault(err)
		return
	}
	if onSafe && size == 8 {
		m.setSafeMeta(addr, valMeta)
	}
	m.cycles += cost.Store
	f.pc++
}

// storePlainSlow is the miss path of the word-specialized plain store
// handlers: the caller has already charged any SFI masking cost, so this
// performs only the store itself plus shadow-metadata and cost accounting.
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
