package vm

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/sps"
)

// TestTemporalSweepDropsStaleEntries: the sweep validates safe-pointer-store
// entries inside live allocations against the allocation table the entry's
// target id refers to (the CETS id derefCheck consults). Entries whose
// target is live under a matching id — or static (id 0) — survive; entries
// pointing at a freed or recycled allocation are dropped and counted.
func TestTemporalSweepDropsStaleEntries(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	m, err := New(p, Config{Protect: backend.CPI, SweepEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, ok := m.malloc(128)
	if !ok {
		t.Fatal("malloc failed")
	}
	tgt, ok := m.malloc(64)
	if !ok {
		t.Fatal("malloc failed")
	}
	dead, ok := m.malloc(64)
	if !ok {
		t.Fatal("malloc failed")
	}
	tid, did := m.allocs[tgt].id, m.allocs[dead].id
	m.free(dead, false) // plain free: no invalidation, entries stay behind
	set := func(off uint64, target uint64, n uint64, id uint64) {
		m.spsStore().Set(base+off, sps.Entry{Value: target, Lower: target, Upper: target + n, ID: id, Kind: sps.KindData})
	}
	set(0, tgt, 64, tid)    // live target, current id: survives
	set(8, tgt, 64, 0)      // static id: never swept
	set(16, tgt, 64, tid+7) // target recycled under a new id: dropped
	set(24, dead, 64, did)  // target freed: dangling, dropped

	runsBefore := m.sweepRuns
	m.temporalSweep()
	if m.sweepRuns != runsBefore+1 {
		t.Fatalf("sweepRuns = %d, want %d", m.sweepRuns, runsBefore+1)
	}
	if m.sweepDropped != 2 {
		t.Errorf("sweepDropped = %d, want 2", m.sweepDropped)
	}
	if m.sweepCycles <= 0 {
		t.Errorf("sweepCycles = %d, want > 0 (the pass must be charged)", m.sweepCycles)
	}
	for _, tc := range []struct {
		off  uint64
		want bool
		what string
	}{
		{0, true, "live-id entry"},
		{8, true, "static-id entry"},
		{16, false, "recycled-id entry"},
		{24, false, "freed-target entry"},
	} {
		if _, ok := m.spsStore().Get(base + tc.off); ok != tc.want {
			t.Errorf("%s: present = %v, want %v", tc.what, ok, tc.want)
		}
	}
}

// TestSweepCadenceAndGating: the sweep fires once per SweepEvery
// allocations, and never when disabled or when no sps-populating
// protection is active.
func TestSweepCadenceAndGating(t *testing.T) {
	alloc := func(m *Machine, n int) {
		for i := 0; i < n; i++ {
			if _, ok := m.malloc(32); !ok {
				t.Fatal("malloc failed")
			}
		}
	}
	p := compile(t, `int main(void) { return 0; }`)

	m, err := New(p, Config{Protect: backend.CPS, SweepEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	alloc(m, 7)
	if m.sweepRuns != 2 {
		t.Errorf("SweepEvery=3 after 7 allocations: %d sweeps, want 2", m.sweepRuns)
	}

	// Disabled by default: SweepEvery = 0.
	m0, err := New(p, Config{Protect: backend.CPI})
	if err != nil {
		t.Fatal(err)
	}
	alloc(m0, 7)
	if m0.sweepRuns != 0 {
		t.Errorf("SweepEvery=0 ran %d sweeps", m0.sweepRuns)
	}

	// No protection populating the store: nothing to sweep, nothing charged.
	mv, err := New(p, Config{SweepEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	alloc(mv, 7)
	if mv.sweepRuns != 0 || mv.sweepCycles != 0 {
		t.Errorf("vanilla machine ran %d sweeps (%d cycles)", mv.sweepRuns, mv.sweepCycles)
	}
}
