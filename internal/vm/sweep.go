package vm

import "repro/internal/sps"

// The periodic temporal-safety sweep: the remaining consumer of the safe
// pointer store's ScanRange entry point. Every SweepEvery-th allocation,
// the runtime walks the live heap allocations and validates each
// safe-pointer-store entry inside their address ranges against the
// allocation table: an entry records the CETS-style id of the object its
// protected value points to (the same id derefCheck consults), so an entry
// whose target allocation has been freed — or recycled under a new id — is
// a dangling protected pointer. free()-time invalidation cannot catch
// these: it drops the entries *inside* the freed region, while entries
// elsewhere that point *into* it keep validating spatially. The sweep
// drops them in the background (§4's temporal-safety extension applied as
// a hygiene pass rather than a per-dereference check), so a stale pointer
// can never launder itself through the safe region once the address is
// reused.
//
// Sweep cycles are charged to the run like every other protection cost,
// but also accumulated separately (Result.SweepCycles) so the steady-state
// overhead tables can attribute them.

// sweepTick counts one allocation against the sweep period and runs the
// sweep when it elapses. No-op unless a sweep period is configured and the
// safe-region enforcer, which populates the safe pointer store, is active.
func (m *Machine) sweepTick() {
	if m.cfg.SweepEvery <= 0 || m.spsStore() == nil {
		return
	}
	m.sweepCountdown--
	if m.sweepCountdown > 0 {
		return
	}
	m.sweepCountdown = m.cfg.SweepEvery
	m.temporalSweep()
}

// temporalSweep performs one pass over the live allocations. The cost is
// SweepAlloc per live allocation walked plus, per entry visited, SweepEntry
// and the store's CostModel price (the validation probe), plus that price
// again per dropped entry (the invalidating write). Charging depends only on counts,
// and deletions commute, so the allocation-map iteration order cannot
// influence any observable or measured state.
func (m *Machine) temporalSweep() {
	cost := &m.cfg.Cost
	sr := m.enf.(*srEnforcer) // sweepTick's gate admits safe-region machines only
	st, price := sr.sps, sr.price
	var cycles int64
	var stale []uint64
	for _, a := range m.allocs {
		if a.freed {
			continue
		}
		cycles += cost.SweepAlloc
		st.ScanRange(a.addr, a.addr+uint64(a.size), func(slot uint64, e sps.Entry) bool {
			cycles += cost.SweepEntry + price
			if e.ID != 0 {
				if t := m.allocs[e.Lower]; t != nil && (t.freed || t.id != e.ID) {
					stale = append(stale, slot)
				}
			}
			return true
		})
	}
	for _, slot := range stale {
		st.Delete(slot)
		cycles += price
	}
	if len(stale) > 0 {
		m.spsDirty = true
	}
	m.cycles += cycles
	m.sweepCycles += cycles
	m.sweepRuns++
	m.sweepDropped += int64(len(stale))
}
