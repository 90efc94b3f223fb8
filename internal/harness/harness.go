// Package harness runs the evaluation of §5 end to end: it compiles each
// workload under the configurations a table or figure compares, measures
// deterministic cycle counts and memory footprints, and renders the paper's
// tables and figures as text. Absolute cycle counts are simulator-specific;
// what the harness reports — and what EXPERIMENTS.md compares against the
// paper — are the relative overheads.
package harness

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// NamedConfig pairs a label with a compilation configuration.
type NamedConfig struct {
	Name string
	Cfg  core.Config
}

// backendColumns are the pointer-integrity backends every comparison table
// renders, in column order.
var backendColumns = []core.Protection{core.CPS, core.CPI, core.PAC}

// SpecConfigs are the Fig. 3 configurations: the vanilla baseline, the
// safe stack alone, and one column per pointer-integrity backend.
func SpecConfigs() []NamedConfig {
	out := []NamedConfig{
		{"vanilla", core.Config{DEP: true}},
		{"safestack", core.Config{Protect: core.SafeStack, DEP: true}},
	}
	for _, p := range backendColumns {
		out = append(out, NamedConfig{p.String(), core.Config{Protect: p, DEP: true}})
	}
	return out
}

// ProtColumns is the protection column list the comparison tables render:
// the safe stack plus every pointer-integrity backend, in SpecConfigs order.
func ProtColumns() []string {
	cols := []string{"safestack"}
	for _, p := range backendColumns {
		cols = append(cols, p.String())
	}
	return cols
}

// Result holds one workload's measurements across configurations.
type Result struct {
	Name   string
	Lang   workloads.Lang
	Cycles map[string]int64
	Mem    map[string]vm.MemStats
	Stats  map[string]analysis.Stats
}

// Overhead returns the percentage overhead of cfg relative to "vanilla".
func (r *Result) Overhead(cfg string) float64 {
	base := r.Cycles["vanilla"]
	if base == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles[cfg])/float64(base) - 1)
}

// Summary holds the Table 1 statistics of a set of overheads.
type Summary struct {
	Avg    float64
	Median float64
	Max    float64
}

// Summarize computes Table 1 statistics for one configuration over a
// language subset (pass -1 for all languages).
func Summarize(results []*Result, cfg string, lang int) Summary {
	var xs []float64
	for _, r := range results {
		if lang >= 0 && int(r.Lang) != lang {
			continue
		}
		xs = append(xs, r.Overhead(cfg))
	}
	if len(xs) == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	med := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		med = (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	return Summary{Avg: sum / float64(len(xs)), Median: med, Max: xs[len(xs)-1]}
}
