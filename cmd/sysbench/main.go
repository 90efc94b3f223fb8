// Command sysbench regenerates the §5.3 system results: Fig. 4 (the
// Phoronix-style suite), Table 4 (the web-server stack), and the §5.2
// memory-overhead measurements.
//
// Usage:
//
//	sysbench            # Fig. 4 + Table 4
//	sysbench -mem       # memory overheads (§5.2)
//	sysbench -all       # everything
//	sysbench -j 8       # fan matrix cells out to 8 workers
//
// The simulator is deterministic and runs share no state, so the tables are
// bit-identical at every -j value; -j only changes wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	mem := flag.Bool("mem", false, "print the §5.2 memory-overhead measurement")
	all := flag.Bool("all", false, "print everything")
	jobs := flag.Int("j", harness.DefaultJobs(), "parallel workers (1 = serial; results are identical)")
	flag.Parse()

	opt := harness.Options{Jobs: *jobs}

	if *mem || *all {
		rows, err := harness.MemoryOverheadsOpt(workloads.Spec(), opt)
		if err != nil {
			fatal(err)
		}
		harness.WriteMemory(os.Stdout, rows)
		fmt.Println()
		if *mem && !*all {
			return
		}
	}

	results, err := harness.RunSuiteOpt(workloads.Phoronix(), harness.SpecConfigs(), opt)
	if err != nil {
		fatal(err)
	}
	harness.WriteFig4(os.Stdout, results)
	fmt.Println()
	if err := harness.WriteTable4Opt(os.Stdout, opt); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sysbench:", err)
	os.Exit(1)
}
