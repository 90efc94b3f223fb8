// Package repro's top-level benchmarks: one per table and figure of the
// paper's evaluation (§5). Each benchmark executes the workload(s) behind
// the corresponding result under the configurations that result compares,
// and reports the measured cycle overhead as a benchmark metric
// (overhead_pct) alongside Go's wall-clock numbers.
//
// The full tables are regenerated by the commands:
//
//	go run ./cmd/specbench -all     # Table 1, Fig. 3, Table 2, Table 3
//	go run ./cmd/sysbench -all      # Fig. 4, Table 4, §5.2 memory
//	go run ./cmd/ripe               # §5.1 RIPE, Fig. 5 matrix
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ripe"
	"repro/internal/sps"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// runOnce compiles and runs one source under one config, returning cycles.
func runOnce(b *testing.B, src string, cfg core.Config) int64 {
	b.Helper()
	prog, err := core.Compile(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := prog.Run()
	if err != nil {
		b.Fatal(err)
	}
	if r.Trap != vm.TrapExit {
		b.Fatalf("trap %v: %v", r.Trap, r.Err)
	}
	return r.Cycles
}

// benchConfigs benchmarks one workload under the Fig. 3 configurations and
// reports per-config overhead.
func benchConfigs(b *testing.B, src string) {
	base := runOnce(b, src, core.Config{DEP: true})
	for _, nc := range harness.SpecConfigs() {
		nc := nc
		b.Run(nc.Name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, src, nc.Cfg)
			}
			b.ReportMetric(100*(float64(cycles)/float64(base)-1), "overhead_pct")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkTable1Fig3SPEC regenerates the Table 1 / Fig. 3 measurement for
// a representative cross-section of the SPEC suite (the full sweep is
// `go run ./cmd/specbench`).
func BenchmarkTable1Fig3SPEC(b *testing.B) {
	names := []string{
		"400.perlbench", "401.bzip2", "403.gcc",
		"447.dealII", "471.omnetpp", "483.xalancbmk",
	}
	all := workloads.Spec()
	for _, name := range names {
		w, ok := workloads.ByName(all, name)
		if !ok {
			b.Fatalf("workload %s missing", name)
		}
		b.Run(w.Name, func(b *testing.B) { benchConfigs(b, w.Src) })
	}
}

// BenchmarkTable2Stats regenerates the Table 2 static statistics (pure
// compilation; no execution).
func BenchmarkTable2Stats(b *testing.B) {
	w, _ := workloads.ByName(workloads.Spec(), "471.omnetpp")
	for i := 0; i < b.N; i++ {
		prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(prog.Stats.MOPct(), "MOCPI_pct")
			b.ReportMetric(prog.Stats.FNUStackPct(), "FNUStack_pct")
		}
	}
}

// BenchmarkTable3SoftBound regenerates the SoftBound comparison rows.
func BenchmarkTable3SoftBound(b *testing.B) {
	for _, w := range harness.Table3Set() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			base := runOnce(b, w.Src, core.Config{DEP: true})
			for _, nc := range []harness.NamedConfig{
				{Name: "cpi", Cfg: core.Config{Protect: core.CPI, DEP: true}},
				{Name: "softbound", Cfg: harness.Table3SoftBoundCfg()},
			} {
				nc := nc
				b.Run(nc.Name, func(b *testing.B) {
					var cycles int64
					for i := 0; i < b.N; i++ {
						cycles = runOnce(b, w.Src, nc.Cfg)
					}
					b.ReportMetric(100*(float64(cycles)/float64(base)-1), "overhead_pct")
				})
			}
		})
	}
}

// BenchmarkFig4Phoronix regenerates the system-suite measurement for a
// subset (full sweep: `go run ./cmd/sysbench`).
func BenchmarkFig4Phoronix(b *testing.B) {
	for _, name := range []string{"apache", "sqlite", "pybench", "openssl"} {
		w, ok := workloads.ByName(workloads.Phoronix(), name)
		if !ok {
			b.Fatalf("workload %s missing", name)
		}
		b.Run(w.Name, func(b *testing.B) { benchConfigs(b, w.Src) })
	}
}

// BenchmarkTable4WebStack regenerates the web-stack throughput rows.
func BenchmarkTable4WebStack(b *testing.B) {
	for _, p := range workloads.WebStack() {
		p := p
		b.Run(p.Name, func(b *testing.B) { benchConfigs(b, p.Src) })
	}
}

// BenchmarkRIPE regenerates the §5.1 attack outcomes for the headline
// defenses over a representative attack subset (full matrix:
// `go run ./cmd/ripe`).
func BenchmarkRIPE(b *testing.B) {
	sample := []ripe.Attack{
		{Technique: ripe.Direct, Location: ripe.Stack, Target: ripe.Ret,
			Payload: ripe.Ret2Libc, Abused: ripe.ViaMemcpy},
		{Technique: ripe.Direct, Location: ripe.Heap, Target: ripe.FuncPtrHeap,
			Payload: ripe.ROP, Abused: ripe.ViaHomebrew},
		{Technique: ripe.Indirect, Location: ripe.Data, Target: ripe.FuncPtrData,
			Payload: ripe.Ret2Libc, Abused: ripe.ViaMemcpy},
	}
	for _, dn := range []string{"none", "modern", "cps", "cpi"} {
		d, err := ripe.DefenseByName(dn)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(dn, func(b *testing.B) {
			succ := 0
			for i := 0; i < b.N; i++ {
				succ = 0
				for _, a := range sample {
					r, err := ripe.Run(a, d, 42)
					if err != nil {
						b.Fatal(err)
					}
					if r.Outcome == ripe.Success {
						succ++
					}
				}
			}
			b.ReportMetric(float64(succ), "attacks_succeeded")
		})
	}
}

// BenchmarkSPSOrganisations is the §4 safe-pointer-store microbenchmark:
// raw store/load mixes per organisation.
func BenchmarkSPSOrganisations(b *testing.B) {
	for _, org := range []struct {
		name string
		s    sps.Store
	}{{"array", sps.NewArray()}, {"twolevel", sps.NewTwoLevel()}, {"hash", sps.NewHash()}} {
		s := org.s
		b.Run(org.name, func(b *testing.B) {
			e := sps.Entry{Value: 0x1000, Lower: 0x1000, Upper: 0x2000, Kind: sps.KindData}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i%4096) * 8
				s.Set(addr, e)
				if got, ok := s.Get(addr); !ok || got.Value != e.Value {
					b.Fatal("lost entry")
				}
			}
		})
	}
}

// BenchmarkIsolationModes is the §3.2.3 ablation: CPI under segment vs SFI
// isolation.
func BenchmarkIsolationModes(b *testing.B) {
	w, _ := workloads.ByName(workloads.Spec(), "403.gcc")
	base := runOnce(b, w.Src, core.Config{DEP: true})
	for _, mode := range []struct {
		name string
		iso  vm.IsolationMode
	}{{"segment", vm.IsoSegment}, {"infohide", vm.IsoInfoHide}, {"sfi", vm.IsoSFI}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, w.Src,
					core.Config{Protect: core.CPI, DEP: true, Isolation: mode.iso})
			}
			b.ReportMetric(100*(float64(cycles)/float64(base)-1), "overhead_pct")
		})
	}
}

// BenchmarkMemoryOverhead reports the §5.2 memory numbers as metrics.
func BenchmarkMemoryOverhead(b *testing.B) {
	w, _ := workloads.ByName(workloads.Spec(), "471.omnetpp")
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{
		{"cpi-array", core.Config{Protect: core.CPI, DEP: true, SPS: "array"}},
		{"cpi-hash", core.Config{Protect: core.CPI, DEP: true, SPS: "hash"}},
		{"cps-hash", core.Config{Protect: core.CPS, DEP: true, SPS: "hash"}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var pct float64
			for i := 0; i < b.N; i++ {
				prog, err := core.Compile(w.Src, v.cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := prog.Run()
				if err != nil {
					b.Fatal(err)
				}
				pct = r.Mem.OverheadPct()
			}
			b.ReportMetric(pct, "mem_overhead_pct")
		})
	}
}

// BenchmarkMPXAblation is the §4 future-work ablation: CPI with checks at
// hardware-assisted (MPX-style) cost, CPICheck = 1.
func BenchmarkMPXAblation(b *testing.B) {
	w, _ := workloads.ByName(workloads.Spec(), "471.omnetpp")
	base := runOnce(b, w.Src, core.Config{DEP: true})
	for _, mpx := range []bool{false, true} {
		mpx := mpx
		name := "software"
		if mpx {
			name = "mpx"
		}
		b.Run(name, func(b *testing.B) {
			cost := vm.DefaultCosts()
			if mpx {
				cost.CPICheck = 1
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, w.Src,
					core.Config{Protect: core.CPI, DEP: true, Cost: cost})
			}
			b.ReportMetric(100*(float64(cycles)/float64(base)-1), "overhead_pct")
		})
	}
}

// BenchmarkParallelSuite measures the evaluation harness itself: one SPEC
// subset sweep under the Fig. 3 configurations, serial vs fanned out. The
// results are bit-identical (see harness.TestParallelMatchesSerial); the
// benchmark shows the wall-clock gain the -j flag buys.
func BenchmarkParallelSuite(b *testing.B) {
	set := workloads.Spec()[:6]
	fanout := harness.DefaultJobs()
	if fanout < 4 {
		fanout = 4 // exercise the pool even on small machines
	}
	for _, bc := range []struct {
		name string
		jobs int
	}{{"serial", 1}, {"parallel", fanout}} {
		jobs := bc.jobs
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := harness.Options{Jobs: jobs}
				if _, err := harness.RunSuiteOpt(set, harness.SpecConfigs(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVMThroughput measures raw simulator speed (steps per second) so
// absolute bench times can be interpreted.
func BenchmarkVMThroughput(b *testing.B) {
	w, _ := workloads.ByName(workloads.Spec(), "429.mcf")
	prog, err := core.Compile(w.Src, core.Config{DEP: true})
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := prog.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		r := m.Run("main")
		steps = r.Steps
	}
	b.ReportMetric(float64(steps), "vm_steps")
}

// BenchmarkInterpreterThroughput is the interpreter hot-path benchmark: it
// runs the call-heavy micro workloads (plus one webstack page) and reports
// steps/sec, ns/step and the fraction of dispatches block compilation
// absorbed. Every hot-path change (predecode, frame pooling, dispatch)
// should move these. The vanilla-noblocks and vanilla-nopromote cells turn
// off block compilation or register promotion for same-machine A/B runs;
// `go test -cpuprofile` profiles any selection of cells.
func BenchmarkInterpreterThroughput(b *testing.B) {
	benchOne := func(b *testing.B, name, src string, cfg core.Config) {
		prog, err := core.Compile(src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var steps int64
		var blockFrac float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Machine construction is excluded so steps/sec measures pure
			// interpretation.
			b.StopTimer()
			m, err := prog.NewMachine()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			r := m.Run("main")
			if r.Trap != vm.TrapExit {
				b.Fatalf("%s: trap %v: %v", name, r.Trap, r.Err)
			}
			steps += r.Steps
			blockFrac = r.BlockFrac()
		}
		b.StopTimer()
		sec := b.Elapsed().Seconds()
		if sec > 0 {
			b.ReportMetric(float64(steps)/sec, "steps/sec")
			b.ReportMetric(sec*1e9/float64(steps), "ns/step")
		}
		b.ReportMetric(blockFrac, "block_frac")
	}
	for _, w := range workloads.Micro() {
		w := w
		b.Run(w.Name+"/vanilla", func(b *testing.B) {
			benchOne(b, w.Name, w.Src, core.Config{DEP: true})
		})
		b.Run(w.Name+"/vanilla-noblocks", func(b *testing.B) {
			benchOne(b, w.Name, w.Src, core.Config{DEP: true, NoBlockCompile: true})
		})
		b.Run(w.Name+"/vanilla-nopromote", func(b *testing.B) {
			benchOne(b, w.Name, w.Src, core.Config{DEP: true, NoPromote: true})
		})
		b.Run(w.Name+"/cpi", func(b *testing.B) {
			benchOne(b, w.Name, w.Src, core.Config{Protect: core.CPI, DEP: true})
		})
	}
	pages := workloads.WebStack()
	if len(pages) > 0 {
		p := pages[0]
		b.Run(p.Name+"/vanilla", func(b *testing.B) {
			benchOne(b, p.Name, p.Src, core.Config{DEP: true})
		})
	}
}

// BenchmarkCompileCorpus compiles and predecodes every bundled workload
// source (micros, SPEC, Phoronix and both web-stack forms) under vanilla,
// cps, cpi and pac with DEP on, the cells of the benchmark's compile-corpus
// workload, so one op is one pass over the corpus and -benchmem's B/op and
// allocs/op are what a pass allocates.
func BenchmarkCompileCorpus(b *testing.B) {
	var srcs []string
	for _, set := range [][]workloads.Workload{workloads.Micro(), workloads.Spec(), workloads.Phoronix()} {
		for _, w := range set {
			srcs = append(srcs, w.Src)
		}
	}
	for _, p := range append(workloads.WebStack(), workloads.WebServe()...) {
		srcs = append(srcs, p.Src)
	}
	prots := []core.Protection{core.Vanilla, core.CPS, core.CPI, core.PAC}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			for _, p := range prots {
				prog, err := core.Compile(src, core.Config{Protect: p, DEP: true})
				if err != nil {
					b.Fatal(err)
				}
				prog.Predecoded()
			}
		}
	}
	b.ReportMetric(float64(len(srcs)*len(prots)), "compiles/op")
}
