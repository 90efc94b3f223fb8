package ripe

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/harness"
)

// SuiteResult aggregates a full run of the attack matrix under one defense.
type SuiteResult struct {
	Defense   string
	Total     int
	Succeeded int
	Prevented int
	Failed    int
	Results   []Result
}

// RunSuite mounts every feasible attack against the defense, serially.
func RunSuite(d Defense, seed int64) (*SuiteResult, error) {
	return RunSuiteJobs(d, seed, 1)
}

// RunSuiteJobs mounts every feasible attack against the defense, fanning
// the attacks out to jobs workers.
func RunSuiteJobs(d Defense, seed int64, jobs int) (*SuiteResult, error) {
	return RunAttacks(All(), d, seed, jobs)
}

// RunAttacks mounts the given attack forms against the defense with jobs
// workers (jobs <= 1 runs serially). Every attack compiles and runs on its
// own program and machine, so the schedule cannot influence outcomes; the
// result list keeps the order of the attacks argument and the aggregate
// counters are accumulated in that order.
func RunAttacks(attacks []Attack, d Defense, seed int64, jobs int) (*SuiteResult, error) {
	results := make([]Result, len(attacks))
	errs := make([]error, len(attacks))
	harness.ForEach(len(attacks), jobs, func(i int) {
		results[i], errs[i] = Run(attacks[i], d, seed)
	})

	sr := &SuiteResult{Defense: d.Name, Total: len(attacks)}
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		sr.Results = append(sr.Results, r)
		switch r.Outcome {
		case Success:
			sr.Succeeded++
		case Prevented:
			sr.Prevented++
		default:
			sr.Failed++
		}
	}
	return sr, nil
}

// SucceededByTarget breaks successes down by target kind.
func (sr *SuiteResult) SucceededByTarget() map[Target]int {
	m := map[Target]int{}
	for _, r := range sr.Results {
		if r.Outcome == Success {
			m[r.Attack.Target]++
		}
	}
	return m
}

// WriteTable renders the §5.1 summary for several defenses.
func WriteTable(w io.Writer, suites []*SuiteResult) {
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s\n",
		"defense", "attacks", "succeeded", "prevented", "failed")
	fmt.Fprintln(w, strings.Repeat("-", 64))
	for _, sr := range suites {
		fmt.Fprintf(w, "%-20s %10d %10d %10d %10d\n",
			sr.Defense, sr.Total, sr.Succeeded, sr.Prevented, sr.Failed)
	}
}

// WriteBreakdown renders successes by target for one defense.
func WriteBreakdown(w io.Writer, sr *SuiteResult) {
	fmt.Fprintf(w, "defense %s: %d/%d succeeded\n", sr.Defense, sr.Succeeded, sr.Total)
	by := sr.SucceededByTarget()
	var keys []int
	for k := range by {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-22s %d\n", Target(k).String(), by[Target(k)])
	}
}
