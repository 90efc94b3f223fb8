package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Options configures how a sweep over the workload×configuration matrix is
// executed. The zero value runs serially.
//
// The VM is a deterministic cycle-accurate simulator and machines share no
// state, so the schedule cannot influence any measurement: a sweep at any
// Jobs value produces bit-identical tables (TestParallelMatchesSerial
// enforces this).
type Options struct {
	// Jobs is the number of worker goroutines fanning out the matrix
	// cells; values below 1 mean serial execution.
	Jobs int
}

// DefaultJobs is the -j default of the bench commands: one worker per CPU.
func DefaultJobs() int { return runtime.NumCPU() }

// ForEach runs f(i) for every i in [0, n), fanned out to jobs worker
// goroutines (serial when jobs <= 1). Each index is executed exactly once
// and by exactly one worker; f must write only to its own slot of any
// shared slice. ForEach returns when all calls have completed. It is the
// fan-out primitive shared by every matrix sweep in the evaluation
// (harness tables, ripe attack suites).
func ForEach(n, jobs int, f func(i int)) {
	if jobs <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if jobs > n {
		jobs = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// cellOut is the raw measurement of one (workload, config) matrix cell,
// carried from a worker back to the deterministic assembly pass.
type cellOut struct {
	cycles int64
	mem    vm.MemStats
	stats  analysis.Stats
	output string
	trap   vm.TrapKind
	trapE  error
	err    error // compile or machine-setup failure
}

// runCell compiles and executes one matrix cell on a fresh machine.
func runCell(src string, cfg core.Config) cellOut {
	prog, err := core.Compile(src, cfg)
	if err != nil {
		return cellOut{err: fmt.Errorf("compile: %w", err)}
	}
	r, err := prog.Run()
	if err != nil {
		return cellOut{err: fmt.Errorf("run: %w", err)}
	}
	return cellOut{
		cycles: r.Cycles,
		mem:    r.Mem,
		stats:  prog.Stats,
		output: r.Output,
		trap:   r.Trap,
		trapE:  r.Err,
	}
}

// RunSuiteOpt measures a whole workload set under every configuration,
// fanning the cells of the matrix out to opt.Jobs workers. Results are
// assembled in matrix order — workload-major, configuration-minor — so the
// returned tables and the reported error do not depend on the schedule.
func RunSuiteOpt(set []workloads.Workload, cfgs []NamedConfig, opt Options) ([]*Result, error) {
	cells := make([][]cellOut, len(set))
	for wi := range cells {
		cells[wi] = make([]cellOut, len(cfgs))
	}

	ForEach(len(set)*len(cfgs), opt.Jobs, func(i int) {
		wi, ci := i/len(cfgs), i%len(cfgs)
		cells[wi][ci] = runCell(set[wi].Src, cfgs[ci].Cfg)
	})

	// Deterministic assembly: scan in matrix order, reporting the first
	// failure by position (matching what a serial sweep would have hit
	// first) and checking output equality against the first configuration.
	out := make([]*Result, 0, len(set))
	for wi, w := range set {
		res := &Result{
			Name:   w.Name,
			Lang:   w.Lang,
			Cycles: map[string]int64{},
			Mem:    map[string]vm.MemStats{},
			Stats:  map[string]analysis.Stats{},
		}
		var wantOut string
		haveOut := false
		for ci, nc := range cfgs {
			c := cells[wi][ci]
			if c.err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, nc.Name, c.err)
			}
			if c.trap != vm.TrapExit {
				return nil, fmt.Errorf("%s/%s: trap %v (%v)", w.Name, nc.Name, c.trap, c.trapE)
			}
			if !haveOut {
				wantOut, haveOut = c.output, true
			} else if c.output != wantOut {
				return nil, fmt.Errorf("%s/%s: output diverged", w.Name, nc.Name)
			}
			res.Cycles[nc.Name] = c.cycles
			res.Mem[nc.Name] = c.mem
			res.Stats[nc.Name] = c.stats
		}
		out = append(out, res)
	}
	return out, nil
}
