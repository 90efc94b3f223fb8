package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ripe"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Golden determinism tests: the VM is a deterministic cycle-accurate
// simulator, and every hot-path change (predecode, frame pooling, page
// caches) must be *behavior-preserving* — same Cycles, same Steps, same
// traps, bit for bit. These tests pin the exact tables for representative
// workloads (one SPEC-C, one webstack page, one call-heavy micro) under the
// baseline/CPS/CPI configurations, and the RIPE attack outcomes, so a
// refactor can never silently shift the paper's tables.
//
// The golden numbers were re-recorded deliberately when register promotion
// became the default lowering (the PromoteRegisters irgen pass): the
// promoted tables are this commit's defaults, and the *unpromoted* tables
// are kept as a second pinned column, so the promotion cost delta is itself
// golden and the spill-everything path cannot bit-rot. If a deliberate
// cost-model or compiler change shifts either column, re-record in the same
// commit and say so.
//
// The 403.gcc and static-page rows (all columns, cycles and steps) were
// re-recorded when the workloads were rescaled for steady-state
// measurement: 403.gcc gained the liveness-dataflow bitmap passes and went
// from 120 to 600 reps, and the webstack request counts were quadrupled,
// so startup and teardown amortize to noise and the tables measure the
// per-iteration protection cost the paper reports. In the same change
// free() switched from per-word invalidation charging to page-granular
// DropPages (per occupied shadow page/table plus a constant), which is why
// the protected columns are no longer dominated by the final 100k-node
// pool free. Micro rows are untouched. TestGoldenGCCOverheadBand pins the
// headline consequence: 403.gcc cpi overhead stays within the paper's
// single-digit band, asserted at ≤15%.

type goldenRow struct {
	cfgName string
	cfg     core.Config
	cycles  int64
	steps   int64
	exit    int64
}

// goldenCycles is the single source of golden per-config cycle counts for
// the promoted (default) compilation: vanilla, cps, cpi in order.
var goldenCycles = map[string][3]int64{
	"403.gcc":     {9934467, 10041329, 10604775},
	"static-page": {1589580, 1637604, 1811876},
	"micro.fib":   {1979501, 1979501, 1979501},
	"micro.calls": {7732011, 7732011, 7732011},
	// micro.sieve touches no code pointers (one global int array), so like
	// the other micros its protected columns equal vanilla.
	"micro.sieve": {2829691, 2829691, 2829691},
}

// goldenCyclesNoPromote pins the unpromoted reference column (the exact
// pre-promotion goldens).
var goldenCyclesNoPromote = map[string][3]int64{
	"403.gcc":     {18655733, 18762595, 19326041},
	"static-page": {2335514, 2383538, 2557810},
	"micro.fib":   {2935167, 2935167, 2935167},
	"micro.calls": {10948017, 10948017, 10948017},
	"micro.sieve": {6685177, 6685177, 6685177},
}

// goldenSteps pins per-workload dynamic step counts: promoted and
// unpromoted (steps are protection-independent; the promotion delta is the
// pass's whole point, so both are golden).
var goldenSteps = map[string][2]int64{
	"403.gcc":     {7845122, 12140626},
	"static-page": {526489, 893449},
	"micro.fib":   {750862, 1228694},
	"micro.calls": {2944007, 4552009},
	"micro.sieve": {2495247, 4422929},
}

func goldenConfigs(name string, exit int64) []goldenRow {
	cycles := goldenCycles[name]
	uCycles := goldenCyclesNoPromote[name]
	steps := goldenSteps[name]
	rows := []goldenRow{
		{"vanilla", core.Config{DEP: true}, cycles[0], steps[0], exit},
		{"cps", core.Config{Protect: core.CPS, DEP: true}, cycles[1], steps[0], exit},
		{"cpi", core.Config{Protect: core.CPI, DEP: true}, cycles[2], steps[0], exit},
	}
	for i, cfgName := range []string{"vanilla", "cps", "cpi"} {
		cfg := rows[i].cfg
		cfg.NoPromote = true
		rows = append(rows, goldenRow{cfgName + "-nopromote", cfg, uCycles[i], steps[1], exit})
	}
	return rows
}

func TestGoldenCycleTables(t *testing.T) {
	spec, ok := workloads.ByName(workloads.Spec(), "403.gcc")
	if !ok {
		t.Fatal("403.gcc missing")
	}
	web := workloads.WebStack()[0] // static-page
	fib, ok := workloads.ByName(workloads.Micro(), "micro.fib")
	if !ok {
		t.Fatal("micro.fib missing")
	}
	calls, ok := workloads.ByName(workloads.Micro(), "micro.calls")
	if !ok {
		t.Fatal("micro.calls missing")
	}
	sieve, ok := workloads.ByName(workloads.Micro(), "micro.sieve")
	if !ok {
		t.Fatal("micro.sieve missing")
	}

	cases := []struct {
		name string
		src  string
		rows []goldenRow
	}{
		{spec.Name, spec.Src, goldenConfigs(spec.Name, 168)},
		{web.Name, web.Src, goldenConfigs(web.Name, 184)},
		{fib.Name, fib.Src, goldenConfigs(fib.Name, 19)},
		{calls.Name, calls.Src, goldenConfigs(calls.Name, 167)},
		{sieve.Name, sieve.Src, goldenConfigs(sieve.Name, 61)},
	}

	for _, tc := range cases {
		for _, row := range tc.rows {
			t.Run(tc.name+"/"+row.cfgName, func(t *testing.T) {
				// Two independent compilations: each predecodes on its own,
				// so agreement between them (and with the goldens) means the
				// lowering cannot shift results between program instances.
				progA, err := core.Compile(tc.src, row.cfg)
				if err != nil {
					t.Fatal(err)
				}
				progB, err := core.Compile(tc.src, row.cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Two machines of one program additionally share one
				// predecoded Code.
				ra1, err := progA.Run()
				if err != nil {
					t.Fatal(err)
				}
				ra2, err := progA.Run()
				if err != nil {
					t.Fatal(err)
				}
				rb, err := progB.Run()
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range []*vm.Result{ra1, ra2, rb} {
					if r.Trap != vm.TrapExit {
						t.Fatalf("run %d: trap %v (%v)", i, r.Trap, r.Err)
					}
					if r.Cycles != row.cycles || r.Steps != row.steps || r.ExitCode != row.exit {
						t.Errorf("run %d: cycles=%d steps=%d exit=%d, golden cycles=%d steps=%d exit=%d",
							i, r.Cycles, r.Steps, r.ExitCode, row.cycles, row.steps, row.exit)
					}
				}
			})
		}
	}
}

// TestGoldenGCCOverheadBand runs the scaled 403.gcc steady-state workload
// and asserts the headline result the rescaling exists to demonstrate: cpi
// costs at most 15% over vanilla (the paper's Table 2 reports single-digit
// gcc overhead; the bound leaves headroom for deliberate cost-model
// shifts). It measures live rather than trusting the pinned table so the
// band holds even in a commit that re-records the goldens.
func TestGoldenGCCOverheadBand(t *testing.T) {
	spec, ok := workloads.ByName(workloads.Spec(), "403.gcc")
	if !ok {
		t.Fatal("403.gcc missing")
	}
	run := func(cfg core.Config) int64 {
		p, err := core.Compile(spec.Src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Trap != vm.TrapExit {
			t.Fatalf("trap %v (%v)", r.Trap, r.Err)
		}
		return r.Cycles
	}
	van := run(core.Config{DEP: true})
	cpi := run(core.Config{Protect: core.CPI, DEP: true})
	ovh := 100 * float64(cpi-van) / float64(van)
	t.Logf("403.gcc steady-state: vanilla=%d cpi=%d overhead=%.2f%%", van, cpi, ovh)
	if ovh > 15 {
		t.Errorf("403.gcc cpi overhead %.2f%% exceeds the 15%% band", ovh)
	}
}

// TestGoldenRIPEOutcomes pins attack outcomes (trap kinds included) for a
// direct stack-smash and an indirect data-segment attack, with and without
// CPI: the protection tables must be as stable as the cycle tables.
func TestGoldenRIPEOutcomes(t *testing.T) {
	attacks := []ripe.Attack{
		{Technique: ripe.Direct, Location: ripe.Stack, Target: ripe.Ret,
			Payload: ripe.Ret2Libc, Abused: ripe.ViaMemcpy},
		{Technique: ripe.Indirect, Location: ripe.Data, Target: ripe.FuncPtrData,
			Payload: ripe.Ret2Libc, Abused: ripe.ViaMemcpy},
	}
	golden := []struct {
		defense string
		attack  int
		outcome ripe.Outcome
		trap    vm.TrapKind
	}{
		{"none", 0, ripe.Success, vm.TrapHijacked},
		{"none", 1, ripe.Success, vm.TrapExit},
		{"cpi", 0, ripe.Failed, vm.TrapExit},
		{"cpi", 1, ripe.Failed, vm.TrapExit},
	}
	for _, g := range golden {
		d, err := ripe.DefenseByName(g.defense)
		if err != nil {
			t.Fatal(err)
		}
		// Run twice: outcomes must also be run-to-run deterministic.
		for rep := 0; rep < 2; rep++ {
			r, err := ripe.Run(attacks[g.attack], d, 42)
			if err != nil {
				t.Fatal(err)
			}
			if r.Outcome != g.outcome || r.Trap != g.trap {
				t.Errorf("%s/attack%d rep%d: outcome=%v trap=%v, golden outcome=%v trap=%v",
					g.defense, g.attack, rep, r.Outcome, r.Trap, g.outcome, g.trap)
			}
		}
	}
}

// TestGoldenSharedPredecodeParallel runs the golden workloads through the
// parallel harness at four workers (the way every bench command runs them)
// and checks the same golden cycles come out: the schedule cannot influence
// any measurement.
func TestGoldenSharedPredecodeParallel(t *testing.T) {
	spec, _ := workloads.ByName(workloads.Spec(), "403.gcc")
	fib, _ := workloads.ByName(workloads.Micro(), "micro.fib")
	calls, _ := workloads.ByName(workloads.Micro(), "micro.calls")
	set := []workloads.Workload{spec, fib, calls}
	cfgs := []harness.NamedConfig{
		{Name: "vanilla", Cfg: core.Config{DEP: true}},
		{Name: "cps", Cfg: core.Config{Protect: core.CPS, DEP: true}},
		{Name: "cpi", Cfg: core.Config{Protect: core.CPI, DEP: true}},
		{Name: "cpi-nopromote", Cfg: core.Config{Protect: core.CPI, DEP: true, NoPromote: true}},
	}
	results, err := harness.RunSuiteOpt(set, cfgs, harness.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want := goldenCycles[r.Name]
		for i, cfg := range []string{"vanilla", "cps", "cpi"} {
			if got := r.Cycles[cfg]; got != want[i] {
				t.Errorf("%s/%s: cycles=%d, golden %d", r.Name, cfg, got, want[i])
			}
		}
		if got := r.Cycles["cpi-nopromote"]; got != goldenCyclesNoPromote[r.Name][2] {
			t.Errorf("%s/cpi-nopromote: cycles=%d, golden %d",
				r.Name, got, goldenCyclesNoPromote[r.Name][2])
		}
	}
}
