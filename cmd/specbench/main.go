// Command specbench regenerates the SPEC CPU2006 results of §5.2:
// Table 1 (overhead summary), Fig. 3 (per-benchmark series), Table 2
// (compilation statistics), Table 3 (SoftBound comparison), plus the
// isolation and safe-pointer-store ablations.
//
// Usage:
//
//	specbench                 # Table 1 + Fig. 3
//	specbench -table2         # compilation statistics only (fast)
//	specbench -table3         # SoftBound comparison
//	specbench -isolation      # §3.2.3 isolation ablation
//	specbench -spsorg         # §4 store organisation ablation
//	specbench -all            # everything
//	specbench -j 8            # fan matrix cells out to 8 workers
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
	t2 := flag.Bool("table2", false, "print Table 2 (compilation statistics)")
	t3 := flag.Bool("table3", false, "print Table 3 (SoftBound comparison)")
	iso := flag.Bool("isolation", false, "print the isolation ablation")
	spsorg := flag.Bool("spsorg", false, "print the SPS organisation ablation")
	all := flag.Bool("all", false, "print everything")
	jobs := flag.Int("j", harness.DefaultJobs(), "parallel workers (1 = serial; results are identical)")
	flag.Parse()

	opt := harness.Options{Jobs: *jobs}

	if *t2 || *all {
		if err := harness.WriteTable2Opt(os.Stdout, workloads.Spec(), opt); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *t3 || *all {
		if err := harness.WriteTable3Opt(os.Stdout, opt); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *iso || *all {
		seg, sfi, err := harness.IsolationOverheadsOpt(workloads.Spec()[:6], opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Isolation ablation (§3.2.3): CPI overhead by mechanism")
		fmt.Printf("  segment-style isolation: %5.1f%%\n", seg)
		fmt.Printf("  SFI isolation:           %5.1f%%  (SFI increment %.1f%%, paper: <5%%)\n",
			sfi, sfi-seg)
		fmt.Println()
	}

	if *spsorg || *all {
		orgs, err := harness.SPSOrgOverheadsOpt(workloads.Spec()[:6], opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Safe pointer store organisation ablation (§4): CPI overhead")
		for _, org := range []string{"array", "twolevel", "hash"} {
			fmt.Printf("  %-10s %5.1f%%\n", org, orgs[org])
		}
		fmt.Println()
	}

	if !anyFlag(*t2, *t3, *iso, *spsorg) || *all {
		results, err := harness.RunSuiteOpt(workloads.Spec(), harness.SpecConfigs(), opt)
		if err != nil {
			fatal(err)
		}
		harness.WriteTable1(os.Stdout, results)
		fmt.Println()
		harness.WriteFig3(os.Stdout, results)
	}
}

func anyFlag(fs ...bool) bool {
	for _, f := range fs {
		if f {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specbench:", err)
	os.Exit(1)
}
