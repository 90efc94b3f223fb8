// Command levee is the compiler driver of the reproduction, mirroring the
// paper's usage: pass -fcpi, -fcps, -fstack-protector-safe or -fpac to
// protect a program, then run it on the simulated machine.
//
// Usage:
//
//	levee [flags] file.c [-- input-string]
//
// Examples:
//
//	levee -fcpi prog.c            # compile with CPI and run
//	levee -fcps -stats prog.c     # CPS + instrumentation statistics
//	levee -emit-ir prog.c         # print the instrumented IR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/vm"
)

func main() {
	fcpi := flag.Bool("fcpi", false, "enable code-pointer integrity (includes safe stack)")
	fcps := flag.Bool("fcps", false, "enable code-pointer separation (includes safe stack)")
	fsafestack := flag.Bool("fstack-protector-safe", false, "enable the safe stack only")
	fsoftbound := flag.Bool("fsoftbound", false, "enable full memory safety (SoftBound baseline)")
	fcfi := flag.Bool("fcfi", false, "enable coarse-grained CFI (baseline)")
	fpac := flag.Bool("fpac", false, "sign code pointers in place with a keyed MAC (includes safe stack)")
	cookies := flag.Bool("cookies", false, "enable stack cookies")
	dep := flag.Bool("dep", true, "non-executable data (DEP/NX)")
	aslr := flag.Bool("aslr", false, "randomize stack/heap (add -pie for full ASLR)")
	pie := flag.Bool("pie", false, "position-independent executable (with -aslr)")
	fortify := flag.Bool("fortify", false, "FORTIFY_SOURCE-style libc checks")
	spsOrg := flag.String("sps", "array", "safe pointer store organisation: array|twolevel|hash")
	isolation := flag.String("isolation", "segment", "safe region isolation: segment|infohide|sfi")
	debugDual := flag.Bool("debug-dual-store", false, "store protected pointers in both regions and compare")
	temporal := flag.Bool("temporal", false, "enable temporal safety checks (CETS-style extension; -fcpi or -fsoftbound only)")
	seed := flag.Int64("seed", 1, "layout/canary randomization seed")
	input := flag.String("input", "", "attacker-controlled input for read_input()")
	stats := flag.Bool("stats", false, "print instrumentation statistics")
	statsJSON := flag.String("stats-json", "", "also write the Table 2 statistics (with and without points-to pruning) to this JSON path")
	emitIR := flag.Bool("emit-ir", false, "print the instrumented IR instead of running")
	entry := flag.String("entry", "main", "entry function")
	flag.Parse()

	if flag.NArg() != 1 {
		usage("usage: levee [flags] file.c")
	}
	// One protection per compilation, as with the paper's compiler flags.
	protect := core.Vanilla
	var given []string
	for _, pf := range []struct {
		name string
		on   bool
		p    core.Protection
	}{
		{"-fcpi", *fcpi, core.CPI},
		{"-fcps", *fcps, core.CPS},
		{"-fstack-protector-safe", *fsafestack, core.SafeStack},
		{"-fsoftbound", *fsoftbound, core.SoftBound},
		{"-fcfi", *fcfi, core.CFI},
		{"-fpac", *fpac, core.PAC},
	} {
		if pf.on {
			protect = pf.p
			given = append(given, pf.name)
		}
	}
	if len(given) > 1 {
		usage("levee: at most one protection flag may be given, got " + strings.Join(given, " "))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		DEP: *dep, ASLR: *aslr, PIE: *pie, StackCookies: *cookies,
		Fortify: *fortify, SPS: *spsOrg, Seed: *seed, Input: []byte(*input),
		DebugDualStore: *debugDual, TemporalSafety: *temporal, Protect: protect,
	}
	switch strings.ToLower(*isolation) {
	case "segment":
		cfg.Isolation = vm.IsoSegment
	case "infohide":
		cfg.Isolation = vm.IsoInfoHide
	case "sfi":
		cfg.Isolation = vm.IsoSFI
	default:
		fatal(fmt.Errorf("unknown isolation %q", *isolation))
	}
	prog, err := core.Compile(string(src), cfg)
	if err != nil {
		fatal(err)
	}
	if *emitIR {
		fmt.Print(prog.IR.String())
		return
	}
	if *stats {
		s := prog.Stats
		fmt.Printf("protection:       %s\n", cfg.Protect)
		fmt.Printf("functions:        %d (%.1f%% need an unsafe frame)\n",
			s.Funcs, s.FNUStackPct())
		fmt.Printf("memory ops:       %d (%.1f%% instrumented, %d checks)\n",
			s.MemOps, s.MOPct(), s.Checks)
		fmt.Printf("safe intrinsics:  %d\n", s.SafeIntrs)
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, string(src), cfg, prog); err != nil {
			fatal(err)
		}
	}

	m, err := prog.NewMachine()
	if err != nil {
		fatal(err)
	}
	r := m.Run(*entry)
	fmt.Print(r.Output)
	if r.Trap != vm.TrapExit {
		fmt.Fprintf(os.Stderr, "levee: %v\n", r.Err)
		os.Exit(1)
	}
	if *stats {
		fmt.Printf("cycles: %d  steps: %d  sps entries: %d  sps bytes: %d\n",
			r.Cycles, r.Steps, r.Mem.SPSEntries, r.Mem.SPSBytes)
	}
	os.Exit(int(r.ExitCode & 0x7f))
}

// statRow is one row of the Table 2 statistics file: the static cost of the
// protection, with or without whole-program points-to pruning.
type statRow struct {
	Workload       string  `json:"workload"`
	Config         string  `json:"config"`
	PointsTo       bool    `json:"points_to"`
	Funcs          int     `json:"funcs"`
	FNUStackPct    float64 `json:"fnustack_pct"`
	MemOps         int     `json:"mem_ops"`
	Instrumented   int     `json:"instrumented"`
	MOPct          float64 `json:"mo_pct"`
	Checks         int     `json:"checks"`
	SafeIntrinsics int     `json:"safe_intrinsics"`
}

// writeStatsJSON records the compiled program's Table 2 statistics. For the
// protections with whole-program pruning (cps/cpi) the file holds two rows —
// the requested configuration plus its NoPointsTo counterpart — so the
// accuracy delta of the points-to analysis is visible per file.
func writeStatsJSON(path, src string, cfg core.Config, prog *core.Program) error {
	row := func(c core.Config, p *core.Program) statRow {
		s := p.Stats
		return statRow{
			Workload: flag.Arg(0), Config: fmt.Sprint(c.Protect),
			PointsTo: !c.NoPointsTo,
			Funcs:    s.Funcs, FNUStackPct: s.FNUStackPct(),
			MemOps: s.MemOps, Instrumented: s.Instrumented,
			MOPct: s.MOPct(), Checks: s.Checks, SafeIntrinsics: s.SafeIntrs,
		}
	}
	rows := []statRow{row(cfg, prog)}
	if (cfg.Protect == core.CPS || cfg.Protect == core.CPI) && !cfg.NoPointsTo {
		other := cfg
		other.NoPointsTo = true
		oprog, err := core.Compile(src, other)
		if err != nil {
			return err
		}
		rows = append(rows, row(other, oprog))
	}
	b, err := json.MarshalIndent(struct {
		Rows []statRow `json:"rows"`
	}{rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// usage reports a command-line error and exits with status 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "levee:", err)
	os.Exit(1)
}
