package vm

import (
	"repro/internal/ir"
	"repro/internal/sps"
)

// Dynamic soundness oracle for the static sensitivity classification
// (Config.AuditSensitive). The claim the static analysis makes — type-based
// or points-to-pruned — is that every memory operation that can move a code
// pointer is instrumented. The oracle checks the claim at runtime using the
// machine's own provenance tracking:
//
//   - a store of a value whose metadata has code provenance (sps.KindCode)
//     through an *uninstrumented* operation means a code pointer is entering
//     regular memory unprotected — the classification missed the store;
//   - a load through an uninstrumented operation from an address holding a
//     valid code-provenance safe-store entry means a protected code pointer
//     is being read around the safe store — the classification missed the
//     load (a kept store with a pruned load, or vice versa, both surface);
//   - the plain variants of memcpy/memmove/memset/free probe every slot of
//     the affected ranges: touching a live code-provenance entry with an
//     unsafe intrinsic means the intrinsic argument analysis missed a
//     sensitive region.
//
// Audit machines must route every access through loadInto/storeFrom
// (PredecodeOptions.AuditHooks, which NewShared requires under
// AuditSensitive); New and core.Program.Predecoded predecode that way.
//
// Stale-entry hygiene: safe-store entries under recycled stack frames (and
// stack regions discarded by longjmp) are deleted eagerly in audit mode —
// popFrame/longjmp call auditDropStack — so a *new* activation's plain
// accesses are not blamed for a previous frame's leftover entries. Normal
// runs keep the lazy semantics (entries are overwritten or miss-checked);
// the eager deletes are audit-only and do not change observable behavior,
// only remove false positives.

// auditLoad vets one resolved load; false means the machine trapped.
func (m *Machine) auditLoad(addr uint64, onSafe bool, size uint8, flags ir.Prot) bool {
	if size != 8 || onSafe {
		return true
	}
	if flags&m.caps.active != 0 {
		return true // instrumented: goes through the safe store
	}
	st := m.spsStore()
	if st == nil {
		return true // the oracle audits the safe-region backend only
	}
	if e, ok := st.Get(addr); ok && e.Valid() && e.Kind == sps.KindCode {
		m.trapf(TrapAuditSensitive, addr, ViaNone,
			"uninstrumented load of protected code pointer at %#x", addr)
		return false
	}
	return true
}

// auditStore vets one resolved store; false means the machine trapped.
func (m *Machine) auditStore(addr uint64, onSafe bool, size uint8, flags ir.Prot, valMeta Meta) bool {
	if size != 8 || onSafe {
		return true
	}
	if flags&m.caps.active != 0 {
		return true
	}
	if valMeta.Kind == sps.KindCode {
		m.trapf(TrapAuditSensitive, addr, ViaNone,
			"uninstrumented store of code-provenance value to %#x", addr)
		return false
	}
	st := m.spsStore()
	if st == nil {
		return true
	}
	if e, ok := st.Get(addr); ok && e.Valid() && e.Kind == sps.KindCode {
		// Overwriting a protected code-pointer slot through an
		// uninstrumented store leaves the stale protected entry shadowing
		// the regular value: a kept load would resurrect the old pointer.
		m.trapf(TrapAuditSensitive, addr, ViaNone,
			"uninstrumented store over protected code pointer at %#x", addr)
		return false
	}
	return true
}

// auditRange vets a plain (unsafe-variant) intrinsic touching
// [base, base+n) on an audit machine: a live code-provenance entry at any
// 8-aligned slot in the range means the intrinsic needed the safe variant,
// and the lowest such slot is reported. A slot that starts below base lies
// outside the range; a range that wraps the address space is empty. what
// names the intrinsic for the trap. The probes are the oracle's own and
// charge no cycles.
func (m *Machine) auditRange(base uint64, n int64, what string) bool {
	st := m.spsStore()
	if n <= 0 || st == nil {
		return true
	}
	end := base + uint64(n)
	for addr := (base + 7) &^ 7; addr >= base && addr < end; addr += 8 {
		if e, ok := st.Get(addr); ok && e.Valid() && e.Kind == sps.KindCode {
			m.trapf(TrapAuditSensitive, addr, ViaNone,
				"plain %s over protected code pointer at %#x", what, addr)
			return false
		}
	}
	return true
}

// auditDropStack discards safe-store entries under a stack region being
// abandoned (frame pop, longjmp unwind). Audit mode only: keeps recycled
// frames from inheriting a dead activation's protected entries.
func (m *Machine) auditDropStack(base uint64, bytes int64) {
	if !m.cfg.AuditSensitive || bytes <= 0 {
		return
	}
	if st := m.spsStore(); st != nil {
		sps.DeleteRange(st, base, int(bytes/8))
	}
}
