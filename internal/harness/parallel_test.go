package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// renderTables renders every writer that consumes suite results, so byte
// comparison covers the full table surface.
func renderTables(results []*Result) string {
	var buf bytes.Buffer
	WriteTable1(&buf, results)
	WriteFig3(&buf, results)
	WriteFig4(&buf, results)
	return buf.String()
}

// TestParallelMatchesSerial is the golden equivalence guarantee of the
// parallel harness: the simulator is deterministic and cells share no
// state, so a parallel sweep must produce bit-identical tables to a serial
// one — cycle counts, memory peaks and compilation statistics alike.
func TestParallelMatchesSerial(t *testing.T) {
	set := fastSet()
	cfgs := SpecConfigs()

	serial, err := RunSuiteOpt(set, cfgs, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuiteOpt(set, cfgs, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel results differ from serial results")
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("  %s: serial %+v\n  parallel %+v",
					serial[i].Name, serial[i], parallel[i])
			}
		}
	}
	if s, p := renderTables(serial), renderTables(parallel); s != p {
		t.Errorf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

// TestParallelAblationsMatchSerial extends the guarantee to the ablation
// and memory sweeps, which route through the same cell runner.
func TestParallelAblationsMatchSerial(t *testing.T) {
	set := fastSet()[:2]
	par := Options{Jobs: 8}

	sRows, err := MemoryOverheadsOpt(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pRows, err := MemoryOverheadsOpt(set, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sRows, pRows) {
		t.Errorf("memory rows differ: serial %+v parallel %+v", sRows, pRows)
	}

	sSeg, sSfi, err := IsolationOverheadsOpt(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pSeg, pSfi, err := IsolationOverheadsOpt(set, par)
	if err != nil {
		t.Fatal(err)
	}
	if sSeg != pSeg || sSfi != pSfi {
		t.Errorf("isolation ablation differs: serial (%v, %v) parallel (%v, %v)",
			sSeg, sSfi, pSeg, pSfi)
	}

	var sT2, pT2 bytes.Buffer
	if err := WriteTable2Opt(&sT2, set, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable2Opt(&pT2, set, par); err != nil {
		t.Fatal(err)
	}
	if sT2.String() != pT2.String() {
		t.Errorf("Table 2 differs:\nserial:\n%s\nparallel:\n%s", sT2.String(), pT2.String())
	}
}

// TestParallelErrorDeterministic: failures are reported by matrix position,
// not completion order, so the error too is schedule-independent.
func TestParallelErrorDeterministic(t *testing.T) {
	set := []workloads.Workload{
		fastSet()[0],
		{Name: "broken", Lang: workloads.C, Src: "int main( {"},
	}
	_, sErr := RunSuiteOpt(set, SpecConfigs(), Options{Jobs: 1})
	if sErr == nil {
		t.Fatal("serial run of broken workload must fail")
	}
	for i := 0; i < 3; i++ {
		_, pErr := RunSuiteOpt(set, SpecConfigs(), Options{Jobs: 8})
		if pErr == nil {
			t.Fatal("parallel run of broken workload must fail")
		}
		if pErr.Error() != sErr.Error() {
			t.Errorf("error differs from serial:\nserial:   %v\nparallel: %v", sErr, pErr)
		}
	}
}

// TestConcurrentMachinesSharedProgram is the race-hardening regression: at
// least two machines executing concurrently on the SAME compiled program
// (as a program run several times from several goroutines is) must neither
// race nor diverge. Run with -race to get the full guarantee.
func TestConcurrentMachinesSharedProgram(t *testing.T) {
	w := fastSet()[0]
	for _, nc := range SpecConfigs() {
		prog, err := core.Compile(w.Src, nc.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		results := make([]*vm.Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = prog.Run()
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("%s: machine %d: %v", nc.Name, i, errs[i])
			}
			if results[i].Trap != vm.TrapExit {
				t.Fatalf("%s: machine %d trapped: %v", nc.Name, i, results[i].Err)
			}
			if results[i].Cycles != results[0].Cycles ||
				results[i].Output != results[0].Output ||
				results[i].Mem != results[0].Mem {
				t.Errorf("%s: machine %d diverged from machine 0", nc.Name, i)
			}
		}
	}
}
