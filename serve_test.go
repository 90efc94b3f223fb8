package repro

// Serving-mode correctness: the pooled machine lifecycle (vm.Pool +
// Machine.Reset) must be observationally invisible. A reset machine's next
// run is pinned bit-for-bit against a fresh machine's run — cycles, steps,
// output, trap, exit code, memory peaks and the heap/globals fingerprint —
// across every workload and protection, serially and under concurrent
// pooled serving, and the recycling must actually eliminate steady-state
// allocation (the point of the serving path).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// servingConfigs is the protection matrix of the serving suite. The cpi
// row also turns on ASLR/PIE and the temporal id checks: reset must
// reproduce the slides, canary and allocation ids, not merely the clean
// layout. The
// pac row exercises the non-safe-region backend seam: reset must redraw
// the same MAC key, or every signed pointer from the previous run would
// still authenticate (or a replayed run would diverge).
func servingConfigs() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"vanilla", core.Config{DEP: true}},
		{"cps", core.Config{Protect: core.CPS, DEP: true}},
		{"cpi", core.Config{Protect: core.CPI, DEP: true,
			ASLR: true, PIE: true, Seed: 42, TemporalSafety: true}},
		{"pac", core.Config{Protect: core.PAC, DEP: true, ASLR: true, Seed: 42}},
	}
}

// servingWorkloads is every workload of the evaluation plus the serving-form
// web pages.
func servingWorkloads() []workloads.Workload {
	all := allWorkloads()
	for _, p := range workloads.WebServe() {
		all = append(all, workloads.Workload{Name: p.Name, Src: p.Src})
	}
	return all
}

// resultKey is the observable footprint of one run that the differential
// pins, including the finished machine's heap/globals hash.
type resultKey struct {
	Cycles, Steps int64
	Output        string
	Trap          vm.TrapKind
	ExitCode      int64
	Mem           vm.MemStats
	HeapHash      uint64
}

func keyOf(r *vm.Result, m *vm.Machine) resultKey {
	return resultKey{
		Cycles: r.Cycles, Steps: r.Steps, Output: r.Output,
		Trap: r.Trap, ExitCode: r.ExitCode, Mem: r.Mem,
		HeapHash: m.HeapGlobalsHash(),
	}
}

// TestResetMatchesFreshAllWorkloads is the reset differential: for every
// workload × protection, run a fresh machine, Reset it, run it again, and
// require the post-reset run to be identical to the fresh run in every
// pinned observable. (Fresh-machine determinism itself — two fresh machines
// agreeing — is pinned by the golden and promotion suites.)
func TestResetMatchesFreshAllWorkloads(t *testing.T) {
	for _, w := range servingWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, pc := range servingConfigs() {
				prog, err := core.Compile(w.Src, pc.cfg)
				if err != nil {
					t.Fatalf("%s: compile: %v", pc.name, err)
				}
				m, err := prog.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				want := keyOf(m.Run("main"), m)
				if err := m.Reset(); err != nil {
					t.Fatalf("%s: Reset: %v", pc.name, err)
				}
				got := keyOf(m.Run("main"), m)
				if got != want {
					t.Errorf("%s: post-reset run diverged from fresh run:\nfresh: %+v\nreset: %+v",
						pc.name, want, got)
				}
			}
		})
	}
}

// TestSharedCodeLayoutTables: the slide-independent layout (function,
// return-site and setjmp-site ordinal tables, string/global offsets) lives
// in the shared Code, so two machines over one Code see the same layout via
// pure per-machine slide arithmetic — and under ASLR/PIE, machines with
// different seeds still diverge in their absolute addresses while computing
// identical results.
func TestSharedCodeLayoutTables(t *testing.T) {
	w := workloads.WebServe()[0]
	prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI, DEP: true})
	if err != nil {
		t.Fatal(err)
	}
	code := prog.Predecoded()
	if again := prog.Predecoded(); again != code {
		t.Fatal("Predecoded must return one shared *Code per program")
	}

	cfg := prog.VMConfig()
	cfg.ASLR, cfg.PIE = true, true
	cfgA, cfgB := cfg, cfg
	cfgA.Seed, cfgB.Seed = 1, 2

	mA, err := vm.NewShared(prog.IR, code, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := vm.NewShared(prog.IR, code, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	mA2, err := vm.NewShared(prog.IR, code, cfgA)
	if err != nil {
		t.Fatal(err)
	}

	// Same seed: identical layout. Different seed: slid layout (ASLR is
	// per-machine even over shared tables).
	addr := func(m *vm.Machine, name string) uint64 {
		a, ok := m.FuncAddr(name)
		if !ok {
			t.Fatalf("function %q not found", name)
		}
		return a
	}
	fn := prog.IR.Funcs[0].Name
	if addr(mA, fn) != addr(mA2, fn) {
		t.Error("same-seed machines over one Code must agree on function addresses")
	}
	if addr(mA, fn) == addr(mB, fn) {
		t.Error("different-seed ASLR machines must slide function addresses differently")
	}
	gname := prog.IR.Globals[0].Name
	gA, okA := mA.GlobalAddr(gname)
	gB, okB := mB.GlobalAddr(gname)
	if !okA || !okB {
		t.Fatalf("global %q not found", gname)
	}
	if gA == gB {
		t.Error("different-seed ASLR machines must slide global addresses differently")
	}

	// And layout divergence is invisible to the computation: both runs are
	// identical in everything but the address draw.
	rA, rB := mA.Run("main"), mB.Run("main")
	if rA.Trap != vm.TrapExit || rB.Trap != vm.TrapExit {
		t.Fatalf("traps: %v / %v", rA.Err, rB.Err)
	}
	if rA.Output != rB.Output || rA.Steps != rB.Steps {
		t.Error("ASLR slide must not change program behavior")
	}
}

// TestPooledConcurrentMatchesUnpooled extends the shared-program race
// regression to the pooled path: for every serving page under every
// serving config, N goroutines each drive M sequential requests through
// one pool (one shared Code), and every request must equal an unpooled
// fresh-machine run in every field of resultKey, the finished machine's
// heap/globals hash included. A request that traps where the fresh run
// exits fails too. Run with -race for the full guarantee.
func TestPooledConcurrentMatchesUnpooled(t *testing.T) {
	for _, w := range workloads.WebServe() {
		for _, pc := range servingConfigs() {
			t.Run(w.Name+"/"+pc.name, func(t *testing.T) {
				t.Parallel()
				prog, err := core.Compile(w.Src, pc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				m, err := prog.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				ref := m.Run("main")
				if ref.Trap != vm.TrapExit {
					t.Fatalf("reference trapped: %v", ref.Err)
				}
				want := keyOf(ref, m)

				pool := prog.NewPool()
				const N, M = 8, 6
				errs := make([]error, N)
				var wg sync.WaitGroup
				for g := 0; g < N; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for r := 0; r < M; r++ {
							m, err := pool.Get()
							if err != nil {
								errs[g] = fmt.Errorf("req %d: %w", r, err)
								return
							}
							if got := keyOf(m.Run("main"), m); got != want {
								errs[g] = fmt.Errorf("req %d diverged from unpooled run:\nfresh:  %+v\npooled: %+v", r, want, got)
								return
							}
							pool.Put(m)
						}
					}(g)
				}
				wg.Wait()
				for g, err := range errs {
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
					}
				}
				if reuses, _ := pool.Stats(); reuses == 0 {
					t.Errorf("pool recycled nothing across %d requests", N*M)
				}
			})
		}
	}
}

// TestPooledRequestAllocations pins the point of the serving path: a pooled
// request must allocate at least 10× less than building a machine per
// request, once the pool is warm.
func TestPooledRequestAllocations(t *testing.T) {
	w := workloads.WebServe()[0]
	prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI, DEP: true})
	if err != nil {
		t.Fatal(err)
	}

	fresh := testing.AllocsPerRun(20, func() {
		m, err := prog.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if r := m.Run("main"); r.Trap != vm.TrapExit {
			t.Fatal(r.Err)
		}
	})

	pool := prog.NewPool()
	if _, err := pool.Serve("main"); err != nil { // warm: one machine built
		t.Fatal(err)
	}
	pooled := testing.AllocsPerRun(20, func() {
		r, err := pool.Serve("main")
		if err != nil {
			t.Fatal(err)
		}
		if r.Trap != vm.TrapExit {
			t.Fatal(r.Err)
		}
	})

	t.Logf("allocs/request: fresh=%.0f pooled=%.0f (%.1fx)", fresh, pooled, fresh/(pooled+1))
	if pooled*10 > fresh {
		t.Errorf("pooled request allocates %.0f objects vs %.0f fresh; want at least a 10x reduction", pooled, fresh)
	}
}

// BenchmarkPooledRequest and BenchmarkFreshRequest are the allocs/op and
// ns/op record of the two serving strategies (run with -benchmem).
func BenchmarkPooledRequest(b *testing.B) {
	w := workloads.WebServe()[0]
	prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI, DEP: true})
	if err != nil {
		b.Fatal(err)
	}
	pool := prog.NewPool()
	if _, err := pool.Serve("main"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Serve("main"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreshRequest(b *testing.B) {
	w := workloads.WebServe()[0]
	prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI, DEP: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := prog.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		m.Run("main")
	}
}
