package repro

// End-to-end validation of the whole-program sensitivity propagation
// (internal/analysis/pointsto.go): the points-to-pruned instrumentation must
// be observationally equivalent to the type-based classification on every
// workload, measurably cheaper on the stand-ins with prunable universal-
// pointer traffic, and certified by two independent soundness oracles — the
// dynamic provenance audit (vm.Config.AuditSensitive) and the RIPE attack
// suite.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ripe"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// oracleWorkloads is every runnable program in the tree: micro kernels, the
// 19 SPEC stand-ins, the Phoronix set, and the three web-stack pages.
func oracleWorkloads() []workloads.Workload {
	set := append([]workloads.Workload{}, workloads.Micro()...)
	set = append(set, workloads.Spec()...)
	set = append(set, workloads.Phoronix()...)
	for _, p := range workloads.WebStack() {
		set = append(set, workloads.Workload{Name: p.Name, Lang: workloads.C, Src: p.Src})
	}
	return set
}

// TestAuditSensitiveOracle runs every workload under cps, cpi and pac, with
// and without points-to pruning, and under softbound (which has no pruned
// variant), in the VM's provenance-audit mode. The audit traps
// (TrapAuditSensitive) the moment a code-provenance value crosses an
// uninstrumented memory operation, so a clean TrapExit on the full matrix is
// a dynamic ground-truth proof that the static classification — pruned or
// not — covered every sensitive operation these programs execute.
func TestAuditSensitiveOracle(t *testing.T) {
	var cfgs []core.Config
	for _, p := range []core.Protection{core.CPS, core.CPI, core.PAC} {
		for _, noPT := range []bool{false, true} {
			cfgs = append(cfgs, core.Config{Protect: p, DEP: true,
				NoPointsTo: noPT, AuditSensitive: true})
		}
	}
	cfgs = append(cfgs, core.Config{Protect: core.SoftBound, DEP: true, AuditSensitive: true})
	for _, w := range oracleWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range cfgs {
				name := cfgName(cfg)
				prog, err := core.Compile(w.Src, cfg)
				if err != nil {
					t.Fatalf("%s noPT=%v: compile: %v", name, cfg.NoPointsTo, err)
				}
				r, err := prog.Run()
				if err != nil {
					t.Fatalf("%s noPT=%v: run: %v", name, cfg.NoPointsTo, err)
				}
				if r.Trap != vm.TrapExit {
					t.Errorf("%s noPT=%v: audit trap %v (%v)\noutput: %s",
						name, cfg.NoPointsTo, r.Trap, r.Err, r.Output)
				}
			}
		})
	}
}

// TestPointsToPrunedDifferential pins observational equivalence: with and
// without pruning, every workload must produce identical output, exit code,
// and step count under both cps and cpi. Pruned operations may only differ
// in cycle cost (fewer safe-store probes), never in behavior.
func TestPointsToPrunedDifferential(t *testing.T) {
	for _, w := range oracleWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, prot := range []core.Protection{core.CPS, core.CPI} {
				pruned, err := core.Compile(w.Src, core.Config{Protect: prot, DEP: true})
				if err != nil {
					t.Fatalf("%v: compile pruned: %v", prot, err)
				}
				base, err := core.Compile(w.Src, core.Config{Protect: prot, DEP: true, NoPointsTo: true})
				if err != nil {
					t.Fatalf("%v: compile baseline: %v", prot, err)
				}
				rp, err := pruned.Run()
				if err != nil {
					t.Fatalf("%v: run pruned: %v", prot, err)
				}
				rb, err := base.Run()
				if err != nil {
					t.Fatalf("%v: run baseline: %v", prot, err)
				}
				if rp.Trap != rb.Trap || rp.ExitCode != rb.ExitCode ||
					rp.Output != rb.Output || rp.Steps != rb.Steps {
					t.Errorf("%v: pruned (trap=%v exit=%d steps=%d) != baseline (trap=%v exit=%d steps=%d)",
						prot, rp.Trap, rp.ExitCode, rp.Steps, rb.Trap, rb.ExitCode, rb.Steps)
				}
				if pruned.Stats.Instrumented > base.Stats.Instrumented {
					t.Errorf("%v: pruning increased instrumented ops %d > %d",
						prot, pruned.Stats.Instrumented, base.Stats.Instrumented)
				}
			}
		})
	}
}

// TestPointsToMOPctDrop is the accuracy claim: the instrumented fraction of
// memory operations measurably drops on at least two SPEC stand-ins once
// whole-program analysis refines the type classifier. 400.perlbench keeps a
// lexical pad of void* scalar bodies and 445.gobmk a void* read cache —
// universal-pointer traffic the local classifier must protect and the
// points-to solver proves clean — while 403.gcc's flagged set (its fold
// table's function pointers) must stay fully protected.
func TestPointsToMOPctDrop(t *testing.T) {
	mo := func(name string, noPT bool) float64 {
		w, ok := workloads.ByName(workloads.Spec(), name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI, DEP: true, NoPointsTo: noPT})
		if err != nil {
			t.Fatal(err)
		}
		return prog.Stats.MOPct()
	}
	dropped := 0
	for _, name := range []string{"400.perlbench", "445.gobmk"} {
		before, after := mo(name, true), mo(name, false)
		t.Logf("%s: MO%% %.2f -> %.2f", name, before, after)
		if after < before {
			dropped++
		}
	}
	if dropped < 2 {
		t.Errorf("MO%% dropped on %d SPEC stand-ins, want >= 2", dropped)
	}
	if before, after := mo("403.gcc", true), mo("403.gcc", false); after != before {
		t.Errorf("403.gcc MO%% changed %.2f -> %.2f: its flagged set is all genuine code-pointer traffic", before, after)
	}
}

// TestRIPEPointsToInvariance runs the full RIPE matrix under pruned and
// unpruned cps/cpi and requires the pruned outcomes to be no weaker: zero
// successes, and no attack that the type-based classification stopped may
// succeed under pruning.
func TestRIPEPointsToInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full RIPE matrix in -short mode")
	}
	for _, name := range []string{"cps", "cpi"} {
		d, err := ripe.DefenseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := d
		base.Cfg.NoPointsTo = true
		prunedRes, err := ripe.RunSuiteJobs(d, 42, 8)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := ripe.RunSuiteJobs(base, 42, 8)
		if err != nil {
			t.Fatal(err)
		}
		if prunedRes.Succeeded != 0 {
			t.Errorf("%s pruned: %d/%d attacks succeeded, want 0",
				name, prunedRes.Succeeded, prunedRes.Total)
		}
		if len(prunedRes.Results) != len(baseRes.Results) {
			t.Fatalf("%s: attack count mismatch %d vs %d",
				name, len(prunedRes.Results), len(baseRes.Results))
		}
		for i := range prunedRes.Results {
			p, b := prunedRes.Results[i], baseRes.Results[i]
			if p.Outcome == ripe.Success && b.Outcome != ripe.Success {
				t.Errorf("%s: attack %d (%v) succeeds only under pruning", name, i, p.Attack)
			}
		}
		t.Logf("%s: pruned %d/%d/%d baseline %d/%d/%d (succeeded/prevented/failed over %d attacks)",
			name, prunedRes.Succeeded, prunedRes.Prevented, prunedRes.Failed,
			baseRes.Succeeded, baseRes.Prevented, baseRes.Failed, prunedRes.Total)
	}
}
