// Command bench is the repository's benchmark. It runs one workload per
// process, checks every program's outcome against expected.json, and prints
// each metric as a "name value unit" line, then the full report as one JSON
// line (or to -out), then a summary JSON line holding the end-to-end metrics
// of BENCHMARK.json, or with -trace 1 its per-layer metrics.
//
// Workloads (see README.md for why each exists):
//
//	interp-hot      the four micros under every backend on fresh machines
//	paper-tables    the 19 SPEC stand-ins x 4 backends: compile, load, run
//	compile-corpus  all 39 workload sources x 4 backends: compile, predecode
//	serve-open      pooled web pages under cpi in an open loop
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload <name|all> -seed N -seconds S -trace 0|1 [-out FILE] [-spans FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// summary line of an untraced and a traced run.
var (
	endToEnd = []string{"setup_s", "op_ms", "op_p90_ms", "work_per_s", "peak_rss_mb"}
	perLayer = []string{
		"minic.parse.ms", "minic.parse.mb_per_s", "minic.sema.ms",
		"irgen.lower.ms", "irgen.ir_instrs", "analysis.pointsto.ms",
		"instrument.ms", "instrument.instrumented", "ir.verify.ms",
		"vm.predecode.ms", "vm.newmachine.us_p50", "vm.run.ns_per_step",
		"vm.dispatches_per_step", "vm.block_frac", "vm.cycles_per_step",
		"vm.pac.signs", "vm.pac.auths", "vm.sps.entries_peak", "vm.sps.kb_peak",
		"compile.share", "vm.pool.share", "go.alloc_mb_per_op", "trace_overhead_pct",
	}
)

var workloadOrder = []string{"interp-hot", "paper-tables", "compile-corpus", "serve-open"}

var runners = map[string]func(*env) error{
	"interp-hot":     interpHot,
	"paper-tables":   paperTables,
	"compile-corpus": compileCorpus,
	"serve-open":     serveOpen,
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed that orders the programs and draws arrivals and pages")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", "-", "file for the full JSON report (- prints it as a line of standard output)")
	spans := flag.String("spans", "", "file to write a traced run's spans to, one JSON object per line")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out, *spans))
	}
	if runners[*workload] == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	correct, err := runOne(*workload, *seed, *seconds, *trace == 1, *out, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// report is the full record of a run.
type report struct {
	Protocol  protocol `json:"protocol"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a workload, prints its metrics and reports whether every
// operation succeeded.
func runOne(name string, seed int64, seconds float64, traced bool, out, spansPath string) (bool, error) {
	e, err := newEnv(name, seed, seconds, traced)
	if err != nil {
		return false, err
	}
	if err := runners[name](e); err != nil {
		return false, err
	}
	e.finish()
	if e.tr != nil {
		if err := e.tr.validate(); err != nil {
			return false, err
		}
		if spansPath != "" {
			if err := e.tr.writeSpans(spansPath, e.tr.selfTimes()); err != nil {
				return false, fmt.Errorf("writing spans: %w", err)
			}
		}
	}

	for _, m := range e.metrics {
		fmt.Printf("%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	rep, err := json.Marshal(report{e.proto, e.check.attempted, e.check.failed, e.metrics})
	if err != nil {
		return false, err
	}
	if out == "-" {
		fmt.Println(string(rep))
	} else if err := os.WriteFile(out, append(rep, '\n'), 0o644); err != nil {
		return false, err
	}

	names := endToEnd
	if traced {
		names = perLayer
	}
	sum := summary{
		Correct:   e.check.failed == 0 && e.check.attempted > 0,
		Attempted: e.check.attempted,
		Failed:    e.check.failed,
		Metrics:   map[string]valueUnit{},
	}
	for _, m := range e.metrics {
		if slices.Contains(names, m.Name) {
			sum.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
		}
	}
	for _, n := range names {
		if _, ok := sum.Metrics[n]; !ok {
			return false, fmt.Errorf("metric %s was not measured", n)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return sum.Correct, nil
}

// runAll runs every workload in a process of its own, one after another,
// and returns the exit code: non-zero if any of them failed.
func runAll(seed int64, seconds float64, trace int, out, spans string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-out", perWorkload(out, w)}
		if spans != "" {
			args = append(args, "-spans", perWorkload(spans, w))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// perWorkload inserts the workload name into a file name, keeping "-".
func perWorkload(path, w string) string {
	if path == "-" {
		return path
	}
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "." + w + path[i:]
	}
	return path + "." + w
}
