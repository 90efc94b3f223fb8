package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// fastSet is a subset for quick harness tests (full sweeps run in the
// commands and benchmarks).
func fastSet() []workloads.Workload {
	all := workloads.Spec()
	var out []workloads.Workload
	for _, name := range []string{"401.bzip2", "403.gcc", "471.omnetpp", "400.perlbench"} {
		if w, ok := workloads.ByName(all, name); ok {
			out = append(out, w)
		}
	}
	return out
}

func TestRunProducesAllConfigs(t *testing.T) {
	rs, err := RunSuiteOpt(fastSet()[:1], SpecConfigs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	for _, cfg := range []string{"vanilla", "safestack", "cps", "cpi"} {
		if r.Cycles[cfg] == 0 {
			t.Errorf("no cycles recorded for %s", cfg)
		}
	}
	if r.Overhead("vanilla") != 0 {
		t.Error("vanilla overhead must be zero")
	}
}

// TestOverheadOrderingOnSuite is the Table 1 ordering claim on the fast
// subset: safestack <= cps <= cpi for the suite averages.
func TestOverheadOrderingOnSuite(t *testing.T) {
	results, err := RunSuiteOpt(fastSet(), SpecConfigs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := Summarize(results, "safestack", -1).Avg
	cps := Summarize(results, "cps", -1).Avg
	cpi := Summarize(results, "cpi", -1).Avg
	t.Logf("avg overheads: safestack %.2f%%, cps %.2f%%, cpi %.2f%%", ss, cps, cpi)
	if !(ss <= cps+0.2 && cps <= cpi+0.2) {
		t.Errorf("ordering violated: safestack %.2f, cps %.2f, cpi %.2f", ss, cps, cpi)
	}
	if cpi <= 0 {
		t.Error("cpi must have measurable overhead on this subset")
	}
}

// TestCppWorseThanCForCPI is the C/C++ split of Table 1: vtable-heavy
// benchmarks pay more under CPI.
func TestCppWorseThanCForCPI(t *testing.T) {
	all := workloads.Spec()
	var set []workloads.Workload
	for _, n := range []string{"401.bzip2", "470.lbm", "471.omnetpp", "483.xalancbmk"} {
		w, _ := workloads.ByName(all, n)
		set = append(set, w)
	}
	results, err := RunSuiteOpt(set, SpecConfigs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := Summarize(results, "cpi", int(workloads.C)).Avg
	cpp := Summarize(results, "cpi", int(workloads.CPP)).Avg
	t.Logf("CPI avg: C %.2f%%, C++ %.2f%%", c, cpp)
	if cpp <= c {
		t.Errorf("C++ CPI overhead (%.2f%%) must exceed C (%.2f%%)", cpp, c)
	}
}

func TestSoftBoundDominatesCPI(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable3Opt(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	t.Log("\n" + out)
	if !strings.Contains(out, "Table 3") {
		t.Fatal("missing header")
	}
	// Parse-free check: rerun to compare directly.
	cfgs := append(SpecConfigs(),
		NamedConfig{"softbound", Table3SoftBoundCfg()})
	results, err := RunSuiteOpt(Table3Set(), cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Overhead("softbound") <= r.Overhead("cpi") {
			t.Errorf("%s: softbound %.1f%% must exceed cpi %.1f%%",
				r.Name, r.Overhead("softbound"), r.Overhead("cpi"))
		}
	}
}

func TestMemoryOverheadShape(t *testing.T) {
	rows, err := MemoryOverheadsOpt(fastSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfg, org string) float64 {
		for _, r := range rows {
			if r.Config == cfg && r.Org == org {
				return r.MedianPct
			}
		}
		t.Fatalf("row %s/%s missing", cfg, org)
		return 0
	}
	cpsHash, cpsArr := get("cps", "hash"), get("cps", "array")
	cpiHash, cpiArr := get("cpi", "hash"), get("cpi", "array")
	t.Logf("cps: hash %.1f%% array %.1f%%; cpi: hash %.1f%% array %.1f%%",
		cpsHash, cpsArr, cpiHash, cpiArr)
	// §5.2 shape: array costs more memory than hash; CPI more than CPS.
	if cpsArr <= cpsHash || cpiArr <= cpiHash {
		t.Error("array organisation must cost more memory than hash")
	}
	if cpiHash <= cpsHash || cpiArr <= cpsArr {
		t.Error("CPI must cost more memory than CPS")
	}
}

func TestIsolationSFIExtra(t *testing.T) {
	seg, sfi, err := IsolationOverheadsOpt(fastSet()[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CPI overhead: segment %.2f%%, SFI %.2f%%", seg, sfi)
	if sfi <= seg {
		t.Error("SFI isolation must add cost over segment isolation")
	}
	if sfi-seg > 10 {
		t.Errorf("SFI increment %.1f%% too large (paper: <5%%)", sfi-seg)
	}
}

func TestSPSOrganisationOrdering(t *testing.T) {
	out, err := SPSOrgOverheadsOpt(fastSet()[:2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CPI overhead by SPS org: array %.2f%%, twolevel %.2f%%, hash %.2f%%",
		out["array"], out["twolevel"], out["hash"])
	if !(out["array"] <= out["twolevel"] && out["twolevel"] <= out["hash"]) {
		t.Error("§4 ordering violated: array must be fastest, hash slowest")
	}
}

func TestWriters(t *testing.T) {
	results, err := RunSuiteOpt(fastSet(), SpecConfigs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteTable1(&buf, results)
	WriteFig3(&buf, results)
	if err := WriteTable2Opt(&buf, fastSet(), Options{}); err != nil {
		t.Fatal(err)
	}
	WriteFig4(&buf, results)
	for _, frag := range []string{"Table 1", "Figure 3", "Table 2", "FNUStack", "Average (C only)"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("writer output missing %q", frag)
		}
	}
}

// TestStoreAblationsPinned pins the two safe-pointer-store ablations to
// four decimals: the organisation ablation exactly as `specbench -spsorg`
// computes it, and every memory row `sysbench -mem` prints. The orderings
// above only bound the shape; these figures catch any change to what the
// three organisations store, release or charge.
func TestStoreAblationsPinned(t *testing.T) {
	opt := Options{Jobs: 2}
	orgs, err := SPSOrgOverheadsOpt(workloads.Spec()[:6], opt)
	if err != nil {
		t.Fatal(err)
	}
	for org, want := range map[string]string{
		"array": "3.8557", "twolevel": "6.0522", "hash": "9.8581",
	} {
		if got := fmt.Sprintf("%.4f", orgs[org]); got != want {
			t.Errorf("spsorg %s = %s%%, want %s%%", org, got, want)
		}
	}

	rows, err := MemoryOverheadsOpt(workloads.Spec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"safestack/- 0.0976 0.6253 6.3063",
		"cps/hash 0.0000 9.6979 167.1975",
		"cps/array 0.0000 194.7031 1651.6129",
		"cpi/hash 0.0000 71.7468 383.1522",
		"cpi/array 0.0000 382.3757 3303.2258",
	}
	if len(rows) != len(want) {
		t.Fatalf("%d memory rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		got := fmt.Sprintf("%s/%s %.4f %.4f %.4f",
			r.Config, r.Org, r.MedianPct, r.MeanPct, r.MaxPct)
		if got != want[i] {
			t.Errorf("memory row %d = %q, want %q", i, got, want[i])
		}
	}
}
