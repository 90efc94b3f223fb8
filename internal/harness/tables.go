package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// WriteTable1 renders the Table 1 summary (SPEC overhead statistics) from a
// SPEC suite run.
func WriteTable1(w io.Writer, results []*Result) {
	cols := ProtColumns()
	fmt.Fprintln(w, "Table 1: Summary of SPEC CPU2006 performance overheads (%)")
	fmt.Fprintf(w, "%-22s", "")
	for _, c := range cols {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintln(w)
	row := func(label string, lang int, stat func(Summary) float64) {
		fmt.Fprintf(w, "%-22s", label)
		for _, c := range cols {
			fmt.Fprintf(w, " %11.1f%%", stat(Summarize(results, c, lang)))
		}
		fmt.Fprintln(w)
	}
	avg := func(s Summary) float64 { return s.Avg }
	med := func(s Summary) float64 { return s.Median }
	max := func(s Summary) float64 { return s.Max }
	row("Average (C/C++)", -1, avg)
	row("Median (C/C++)", -1, med)
	row("Maximum (C/C++)", -1, max)
	row("Average (C only)", int(workloads.C), avg)
	row("Median (C only)", int(workloads.C), med)
	row("Maximum (C only)", int(workloads.C), max)
}

// WriteFig3 renders the Fig. 3 per-benchmark overhead series as text bars.
func WriteFig3(w io.Writer, results []*Result) {
	cols := ProtColumns()
	fmt.Fprintln(w, "Figure 3: Levee performance for SPEC CPU2006 (overhead vs vanilla, %)")
	fmt.Fprintf(w, "%-16s %5s", "benchmark", "lang")
	for _, c := range cols {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintf(w, "  %s\n", "cpi bar")
	for _, r := range results {
		bar := strings.Repeat("#", int(r.Overhead("cpi")/2+0.5))
		fmt.Fprintf(w, "%-16s %5s", r.Name, r.Lang)
		for _, c := range cols {
			fmt.Fprintf(w, " %9.1f%%", r.Overhead(c))
		}
		fmt.Fprintf(w, "  %s\n", bar)
	}
}

// WriteTable2Opt renders the Table 2 compilation statistics (FNUStack,
// MOCPS, MOCPI). These are static properties of the instrumented binaries;
// the two compilations per benchmark fan out to opt.Jobs workers.
func WriteTable2Opt(w io.Writer, set []workloads.Workload, opt Options) error {
	cfgs := []core.Config{{Protect: core.CPS}, {Protect: core.CPI}}
	progs := make([]*core.Program, len(set)*len(cfgs))
	errs := make([]error, len(progs))
	ForEach(len(progs), opt.Jobs, func(i int) {
		progs[i], errs[i] = core.Compile(set[i/len(cfgs)].Src, cfgs[i%len(cfgs)])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "Table 2: Compilation statistics")
	fmt.Fprintf(w, "%-16s %10s %8s %8s\n", "benchmark", "FNUStack", "MOCPS", "MOCPI")
	for i, wl := range set {
		cpsProg, cpiProg := progs[i*len(cfgs)], progs[i*len(cfgs)+1]
		fmt.Fprintf(w, "%-16s %9.1f%% %7.1f%% %7.1f%%\n", wl.Name,
			cpiProg.Stats.FNUStackPct(), cpsProg.Stats.MOPct(), cpiProg.Stats.MOPct())
	}
	return nil
}

// Table3Set is the SoftBound comparison subset (the four SPEC programs that
// compile and run error-free under SoftBound in the paper).
func Table3Set() []workloads.Workload {
	all := workloads.Spec()
	var out []workloads.Workload
	for _, name := range []string{"401.bzip2", "447.dealII", "458.sjeng", "464.h264ref"} {
		if w, ok := workloads.ByName(all, name); ok {
			out = append(out, w)
		}
	}
	return out
}

// Table3SoftBoundCfg is the SoftBound configuration of the Table 3
// comparison.
func Table3SoftBoundCfg() core.Config {
	return core.Config{Protect: core.SoftBound, DEP: true}
}

// WriteTable3Opt renders the SoftBound comparison.
func WriteTable3Opt(w io.Writer, opt Options) error {
	cfgs := append(SpecConfigs(),
		NamedConfig{"softbound", Table3SoftBoundCfg()})
	results, err := RunSuiteOpt(Table3Set(), cfgs, opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: Overhead of Levee and SoftBound (%)")
	writeOverheadRows(w, results, append(ProtColumns(), "softbound"))
	return nil
}

// WriteFig4 renders the Phoronix-style system suite overheads.
func WriteFig4(w io.Writer, results []*Result) {
	fmt.Fprintln(w, "Figure 4: Performance overheads on the system suite (Phoronix-style, %)")
	writeOverheadRows(w, results, ProtColumns())
}

// writeOverheadRows renders one benchmark-per-row overhead listing with a
// column per configuration in cols (the shared body of Table 3, Fig. 4
// and Table 4).
func writeOverheadRows(w io.Writer, results []*Result, cols []string) {
	fmt.Fprintf(w, "%-16s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintf(w, "%-16s", r.Name)
		for _, c := range cols {
			fmt.Fprintf(w, " %9.1f%%", r.Overhead(c))
		}
		fmt.Fprintln(w)
	}
}

// WriteTable4Opt renders the web stack throughput overheads. Throughput
// loss equals cycle overhead on a saturated single-core server.
func WriteTable4Opt(w io.Writer, opt Options) error {
	var set []workloads.Workload
	for _, p := range workloads.WebStack() {
		set = append(set, workloads.Workload{Name: p.Name, Lang: workloads.C, Src: p.Src})
	}
	results, err := RunSuiteOpt(set, SpecConfigs(), opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: Throughput benchmark for web server stack (overhead %)")
	writeOverheadRows(w, results, ProtColumns())
	return nil
}

// MemRow is one §5.2 memory-overhead measurement.
type MemRow struct {
	Config    string
	Org       string
	MedianPct float64
	MeanPct   float64
	MaxPct    float64
}

// MemoryOverheadsOpt reproduces the §5.2 memory experiment: median memory
// overhead over the SPEC suite for the safe stack, CPS and CPI, with the
// hash-table and array organisations of the safe pointer store.
func MemoryOverheadsOpt(set []workloads.Workload, opt Options) ([]MemRow, error) {
	type variant struct {
		name, org string
		cfg       core.Config
	}
	variants := []variant{
		{"safestack", "-", core.Config{Protect: core.SafeStack, DEP: true}},
		{"cps", "hash", core.Config{Protect: core.CPS, DEP: true, SPS: "hash"}},
		{"cps", "array", core.Config{Protect: core.CPS, DEP: true, SPS: "array"}},
		{"cpi", "hash", core.Config{Protect: core.CPI, DEP: true, SPS: "hash"}},
		{"cpi", "array", core.Config{Protect: core.CPI, DEP: true, SPS: "array"}},
	}
	cfgs := make([]NamedConfig, len(variants))
	for i, v := range variants {
		cfgs[i] = NamedConfig{v.name + "/" + v.org, v.cfg}
	}
	results, err := RunSuiteOpt(set, cfgs, opt)
	if err != nil {
		return nil, err
	}
	var rows []MemRow
	for i, v := range variants {
		var pcts []float64
		for _, r := range results {
			ms := r.Mem[cfgs[i].Name]
			extra := float64(ms.SPSBytes)
			if v.name == "safestack" {
				// Safe-stack memory overhead is the duplicated stack area.
				extra = float64(ms.SafeStack)
			}
			base := float64(ms.ProgramBytes())
			if base > 0 {
				pcts = append(pcts, 100*extra/base)
			}
		}
		s := summarize(pcts)
		rows = append(rows, MemRow{Config: v.name, Org: v.org,
			MedianPct: s.Median, MeanPct: s.Avg, MaxPct: s.Max})
	}
	return rows, nil
}

// WriteMemory renders the §5.2 memory-overhead rows.
func WriteMemory(w io.Writer, rows []MemRow) {
	fmt.Fprintln(w, "Memory overhead (§5.2) over the SPEC suite")
	fmt.Fprintf(w, "%-12s %-8s %10s %10s %10s\n", "config", "sps org", "median", "mean", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8s %9.1f%% %9.1f%% %9.1f%%\n",
			r.Config, r.Org, r.MedianPct, r.MeanPct, r.MaxPct)
	}
}

// IsolationOverheadsOpt measures the §3.2.3 isolation ablation: CPI under
// segment-style isolation vs SFI (which pays a mask on every memory
// operation; the paper reports the SFI increment below 5%).
func IsolationOverheadsOpt(set []workloads.Workload, opt Options) (segment, sfi float64, err error) {
	cfgs := []NamedConfig{
		{"vanilla", core.Config{DEP: true}},
		{"segment", core.Config{Protect: core.CPI, DEP: true, Isolation: vm.IsoSegment}},
		{"sfi", core.Config{Protect: core.CPI, DEP: true, Isolation: vm.IsoSFI}},
	}
	results, err := RunSuiteOpt(set, cfgs, opt)
	if err != nil {
		return 0, 0, err
	}
	var segSum, sfiSum float64
	for _, r := range results {
		segSum += r.Overhead("segment")
		sfiSum += r.Overhead("sfi")
	}
	n := float64(len(results))
	return segSum / n, sfiSum / n, nil
}

// SPSOrgOverheadsOpt compares the three safe pointer store organisations
// under CPI (§4: the simple array was the fastest).
func SPSOrgOverheadsOpt(set []workloads.Workload, opt Options) (map[string]float64, error) {
	cfgs := []NamedConfig{{"vanilla", core.Config{DEP: true}}}
	for _, org := range []string{"array", "twolevel", "hash"} {
		cfgs = append(cfgs, NamedConfig{org,
			core.Config{Protect: core.CPI, DEP: true, SPS: org}})
	}
	results, err := RunSuiteOpt(set, cfgs, opt)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, org := range []string{"array", "twolevel", "hash"} {
		var sum float64
		for _, r := range results {
			sum += r.Overhead(org)
		}
		out[org] = sum / float64(len(results))
	}
	return out, nil
}
