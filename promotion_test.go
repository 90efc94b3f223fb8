package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Differential promotion-equivalence suite: register promotion (the irgen
// mem2reg pass, on by default) is a compiler optimization, so it must be
// invisible to everything except the step/cycle counts. Every workload runs
// promoted and unpromoted under the vanilla/CPS/CPI configurations, and the
// two executions must agree bit for bit on program-visible behaviour:
// output, exit code, trap kind, and the heap/globals memory image at exit.
// Steps and Cycles differ *by design* — that is the point of the pass — and
// the suite pins the direction: promoted execution never takes more steps
// than unpromoted.

// promotionConfigs are the protection configurations the equivalence suite
// runs both ways.
func promotionConfigs() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"vanilla", core.Config{DEP: true}},
		{"cps", core.Config{Protect: core.CPS, DEP: true}},
		{"cpi", core.Config{Protect: core.CPI, DEP: true}},
	}
}

// allWorkloads flattens every workload set: the micros, the SPEC-C/C++
// stand-ins, the Phoronix suite and the webstack pages.
func allWorkloads() []workloads.Workload {
	var all []workloads.Workload
	all = append(all, workloads.Micro()...)
	all = append(all, workloads.Spec()...)
	all = append(all, workloads.Phoronix()...)
	for _, p := range workloads.WebStack() {
		all = append(all, workloads.Workload{Name: p.Name, Src: p.Src})
	}
	return all
}

// runHashed compiles src under cfg, runs it, and returns the result plus
// the heap/globals memory fingerprint of the finished machine.
func runHashed(t *testing.T, src string, cfg core.Config) (*vm.Result, uint64) {
	t.Helper()
	prog, err := core.Compile(src, cfg)
	if err != nil {
		t.Fatalf("compile (NoPromote=%v): %v", cfg.NoPromote, err)
	}
	m, err := prog.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run("main")
	return r, m.HeapGlobalsHash()
}

func TestPromotionEquivalenceAllWorkloads(t *testing.T) {
	for _, w := range allWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, pc := range promotionConfigs() {
				promoted, phash := runHashed(t, w.Src, pc.cfg)
				ucfg := pc.cfg
				ucfg.NoPromote = true
				unpromoted, uhash := runHashed(t, w.Src, ucfg)

				if promoted.Trap != unpromoted.Trap {
					t.Errorf("%s: trap %v promoted vs %v unpromoted",
						pc.name, promoted.Trap, unpromoted.Trap)
				}
				if promoted.ExitCode != unpromoted.ExitCode {
					t.Errorf("%s: exit %d promoted vs %d unpromoted",
						pc.name, promoted.ExitCode, unpromoted.ExitCode)
				}
				if promoted.Output != unpromoted.Output {
					t.Errorf("%s: outputs differ (%d vs %d bytes)",
						pc.name, len(promoted.Output), len(unpromoted.Output))
				}
				if phash != uhash {
					t.Errorf("%s: heap/globals state differs (%#x vs %#x)",
						pc.name, phash, uhash)
				}
				if promoted.Steps > unpromoted.Steps {
					t.Errorf("%s: promotion increased steps: %d > %d",
						pc.name, promoted.Steps, unpromoted.Steps)
				}
			}
		})
	}
}

// TestPromotionStepReductionBenchCells pins the optimization's reason to
// exist: on four BenchmarkInterpreterThroughput cells ({fib,qsort} ×
// {vanilla,cpi}) promotion must reduce dynamic Steps, with at least a 20%
// reduction somewhere (in practice it is ≥20% on every cell; this asserts
// the floor, the golden tables pin the exact values).
func TestPromotionStepReductionBenchCells(t *testing.T) {
	cells := []struct {
		workload string
		cfg      core.Config
	}{
		{"micro.fib", core.Config{DEP: true}},
		{"micro.fib", core.Config{Protect: core.CPI, DEP: true}},
		{"micro.qsort", core.Config{DEP: true}},
		{"micro.qsort", core.Config{Protect: core.CPI, DEP: true}},
	}
	bestPct := 0.0
	for _, c := range cells {
		w, ok := workloads.ByName(workloads.Micro(), c.workload)
		if !ok {
			t.Fatalf("%s missing", c.workload)
		}
		promoted, _ := runHashed(t, w.Src, c.cfg)
		ucfg := c.cfg
		ucfg.NoPromote = true
		unpromoted, _ := runHashed(t, w.Src, ucfg)
		if promoted.Trap != vm.TrapExit || unpromoted.Trap != vm.TrapExit {
			t.Fatalf("%s: traps %v/%v", c.workload, promoted.Trap, unpromoted.Trap)
		}
		if promoted.Steps >= unpromoted.Steps {
			t.Errorf("%s/%v: no step reduction (%d vs %d)",
				c.workload, c.cfg.Protect, promoted.Steps, unpromoted.Steps)
		}
		pct := 100 * (1 - float64(promoted.Steps)/float64(unpromoted.Steps))
		if pct > bestPct {
			bestPct = pct
		}
		t.Logf("%s/%v: steps %d -> %d (-%.1f%%)",
			c.workload, c.cfg.Protect, unpromoted.Steps, promoted.Steps, pct)
	}
	if bestPct < 20 {
		t.Errorf("best cell reduction %.1f%%, want >= 20%%", bestPct)
	}
}
