package repro

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Block-compilation equivalence property tests: the predecode block
// compiler (internal/vm/blocks.go) turns straight-line traces into single
// compiled segments with their own inlined executors, and it must be
// invisible to everything except wall-clock time. These tests run every
// bundled micro, SPEC stand-in and webstack workload under the baseline
// configuration and
// the cps/cpi/pac backends twice, once on the default predecoding and once
// with NoBlockCompile (plain per-instruction dispatch), and require identical
// Output, Cycles, Steps, exit codes and trap details. Dispatches is
// deliberately NOT compared: absorbing dispatch round trips is the whole
// point of the stage, and Result.BlockFrac reports the difference.
//
// A truncated-budget sweep additionally forces the step budget to expire
// at many different points, so a budget trap landing in the middle of a
// segment — including between the constituents of a merged pair op — must
// report the same step count and PC as the plain dispatch loop.

// equivConfigs are the protection configurations the equivalence must
// hold under: segments inline flagged-load/store fallbacks and metadata
// maintenance that only the enforcement backends arm. The unpromoted cpi
// row is RIPE's victim configuration: its direct calls pass spilled
// variables as register temporaries, so they take the segment call shape
// and extend traces into callees as well.
func equivConfigs() []core.Config {
	return []core.Config{
		{DEP: true},
		{Protect: core.CPS, DEP: true},
		{Protect: core.CPI, DEP: true},
		{Backend: "pac", DEP: true},
		{Protect: core.CPI, DEP: true, NoPromote: true},
	}
}

// cfgName labels an equivConfigs entry in failure messages.
func cfgName(cfg core.Config) string {
	name := cfg.Protect.String()
	if cfg.Backend != "" {
		name = cfg.Backend
	}
	if cfg.NoPromote {
		name += "/nopromote"
	}
	return name
}

// equivWorkloads is the bundled workload set the property runs over. The
// SPEC stand-ins are where the global-indexing and folded-branch segment
// shapes fire most.
func equivWorkloads() []workloads.Workload {
	set := append([]workloads.Workload{}, workloads.Micro()...)
	set = append(set, workloads.Spec()...)
	for _, p := range workloads.WebStack() {
		set = append(set, workloads.Workload{Name: p.Name, Src: p.Src})
	}
	return set
}

// runBlocksBoth executes one compiled program on the block-compiled and
// block-free streams with the given step budget (0 = default).
func runBlocksBoth(t *testing.T, prog *core.Program, maxSteps int64) (blocks, noblocks *vm.Result) {
	t.Helper()
	cfg := prog.VMConfig()
	cfg.MaxSteps = maxSteps

	blockCode := vm.PredecodeWith(prog.IR, vm.PredecodeOptions{})
	plainCode := vm.PredecodeWith(prog.IR, vm.PredecodeOptions{NoBlockCompile: true})
	if plainCode.BlockSegs != 0 {
		t.Fatalf("NoBlockCompile predecoding reports %d segments", plainCode.BlockSegs)
	}

	mb, err := vm.NewShared(prog.IR, blockCode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := vm.NewShared(prog.IR, plainCode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mb.Run("main"), mp.Run("main")
}

// compareBlockResults asserts the observable surface matches. Dispatches
// is excluded by design (see the file comment).
func compareBlockResults(t *testing.T, name string, blocks, noblocks *vm.Result) {
	t.Helper()
	if blocks.Trap != noblocks.Trap {
		t.Errorf("%s: trap blocks=%v noblocks=%v", name, blocks.Trap, noblocks.Trap)
	}
	if blocks.Cycles != noblocks.Cycles {
		t.Errorf("%s: cycles blocks=%d noblocks=%d", name, blocks.Cycles, noblocks.Cycles)
	}
	if blocks.Steps != noblocks.Steps {
		t.Errorf("%s: steps blocks=%d noblocks=%d", name, blocks.Steps, noblocks.Steps)
	}
	if blocks.ExitCode != noblocks.ExitCode {
		t.Errorf("%s: exit blocks=%d noblocks=%d", name, blocks.ExitCode, noblocks.ExitCode)
	}
	if blocks.Output != noblocks.Output {
		t.Errorf("%s: output differs (blocks %d bytes, noblocks %d bytes)",
			name, len(blocks.Output), len(noblocks.Output))
	}
	if (blocks.Err == nil) != (noblocks.Err == nil) {
		t.Errorf("%s: error presence differs", name)
	} else if blocks.Err != nil {
		if blocks.Err.Kind != noblocks.Err.Kind || blocks.Err.PC != noblocks.Err.PC {
			t.Errorf("%s: trap detail blocks=%v@%s noblocks=%v@%s",
				name, blocks.Err.Kind, blocks.Err.PC, noblocks.Err.Kind, noblocks.Err.PC)
		}
	}
}

// TestBlockCompileEquivalence runs every bundled workload to completion
// under every equivConfigs configuration, block-compiled vs not.
func TestBlockCompileEquivalence(t *testing.T) {
	for _, w := range equivWorkloads() {
		for _, cfg := range equivConfigs() {
			prog, err := core.Compile(w.Src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if code := prog.Predecoded(); code.BlockSegs == 0 {
				t.Errorf("%s: default predecoding built no segments — property test would be vacuous", w.Name)
			}
			name := w.Name + "/" + cfgName(cfg)
			blocks, noblocks := runBlocksBoth(t, prog, 0)
			compareBlockResults(t, name, blocks, noblocks)
			if blocks.Trap != vm.TrapExit {
				t.Errorf("%s: workload did not run to completion (%v)", name, blocks.Trap)
			}
			// Every step runs inside a segment: the per-instruction
			// handlers are the reference tier, never the hot one.
			if blocks.BlockSteps != blocks.Steps {
				t.Errorf("%s: %d of %d steps executed inside segments; want all",
					name, blocks.BlockSteps, blocks.Steps)
			}
		}
	}
}

// TestBlockCompileEquivalenceTruncated sweeps tiny step budgets so
// execution is cut off at many different instruction boundaries — at
// segment entry, mid-trace, between pair-op constituents, and inside the
// inlined call/return paths. TrapMaxSteps must be bit-identical (steps,
// cycles, reported PC) with block compilation on and off.
func TestBlockCompileEquivalenceTruncated(t *testing.T) {
	// fib is call-heavy (inlined call/return fast paths); sieve is
	// branch-dense (trace-extending conditional branches and merged
	// compare+branch pairs); qsort indexes a global array (skGEPGR) and
	// folds loop-exit branches. Between them every segment executor runs.
	for _, wn := range []string{"micro.fib", "micro.sieve", "micro.qsort"} {
		var w = equivWorkloads()[0]
		for _, cand := range equivWorkloads() {
			if cand.Name == wn {
				w = cand
			}
		}
		for _, cfg := range equivConfigs() {
			prog, err := core.Compile(w.Src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for budget := int64(1); budget <= 300; budget++ {
				blocks, noblocks := runBlocksBoth(t, prog, budget)
				if blocks.Trap != vm.TrapMaxSteps {
					t.Fatalf("budget %d: expected TrapMaxSteps, got %v", budget, blocks.Trap)
				}
				compareBlockResults(t, w.Name, blocks, noblocks)
				if t.Failed() {
					t.Fatalf("first divergence at budget %d under %s", budget, cfgName(cfg))
				}
			}
		}
	}
}

// TestPInsSize pins the predecoded instruction size. The block compiler's
// segOp executors read through PIns pointers on their slow paths and the
// dispatch loop strides over a []PIns; growing the struct degrades the
// cache behavior both were tuned against, so a size change must be a
// deliberate decision, not a side effect of adding a field.
func TestPInsSize(t *testing.T) {
	if got := unsafe.Sizeof(vm.PIns{}); got != 160 {
		t.Errorf("unsafe.Sizeof(vm.PIns) = %d, want 160", got)
	}
}
