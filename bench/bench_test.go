package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite expected.json from the outcomes all backends agree on")

// TestExpected runs every corpus program under every backend, checks that
// the backends agree on its exit code and output, and that the agreed
// outcome is the one expected.json records.
func TestExpected(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]expectation{}
	for _, c := range cells(corpus(), backends...) {
		u, err := compile(c, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := u.newMachine()
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run("main")
		if !r.Ok() {
			t.Fatalf("%s/%s: trap %v (%v)", c.prog.name, c.backend, r.Trap, r.Err)
		}
		o := outcomeOf(r)
		if prev, ok := got[c.prog.name]; ok && prev != o {
			t.Fatalf("%s: %s gives %+v, vanilla %+v", c.prog.name, c.backend, o, prev)
		}
		got[c.prog.name] = o
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outcomes differ from expected.json:\n got %v\nwant %v", got, want)
	}
}

// TestStagedCompileMatchesCore pins the traced compile path, which calls
// the stages one by one, to core.Compile: same IR, same statistics.
func TestStagedCompileMatchesCore(t *testing.T) {
	for _, c := range cells(corpus(), backends...) {
		ref, err := core.Compile(c.prog.src, configFor(c.backend))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := compileStaged(c, tr, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got.IR.String() != ref.IR.String() {
			t.Errorf("%s/%s: staged IR differs from core.Compile", c.prog.name, c.backend)
		}
		if got.Stats != ref.Stats {
			t.Errorf("%s/%s: staged stats %+v, core.Compile %+v", c.prog.name, c.backend, got.Stats, ref.Stats)
		}
	}
}

// TestWorkloads runs each workload briefly, untraced and traced: every
// operation must pass its check, the summary metrics must be those
// BENCHMARK.json declares with the units it declares, and the spans must
// nest.
func TestWorkloads(t *testing.T) {
	decl := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			e, err := newEnv(name, 1, 0.2, traced)
			if err != nil {
				t.Fatal(err)
			}
			e.setups, e.quick = 1, true
			if err := runners[name](e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if e.check.failed != 0 || e.check.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, e.check.failed, e.check.attempted)
			}
			e.finish()
			names := endToEnd
			if traced {
				names = perLayer
				if err := e.tr.validate(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				for i, d := range e.tr.selfTimes() {
					if d < 0 {
						t.Errorf("%s: span %d (%s) has self time %v", name, i, e.tr.spans[i].name, d)
					}
				}
			}
			got := map[string]string{}
			for _, m := range e.metrics {
				got[m.Name] = m.Unit
			}
			for _, n := range names {
				if u, ok := got[n]; !ok || u != units[n] {
					t.Errorf("%s traced=%v: metric %s unit %q (measured %v), BENCHMARK.json says %q", name, traced, n, u, ok, units[n])
				}
			}
		}
	}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	d := readBenchmarkJSON(t)
	var ws, e2e, layer []string
	for _, w := range d.Workloads {
		ws = append(ws, w.Name)
	}
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range d.PerLayer {
		layer = append(layer, m.Name)
	}
	if !reflect.DeepEqual(ws, workloadOrder) || !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layer, perLayer) {
		t.Fatalf("BENCHMARK.json declares workloads %v, end-to-end %v, per-layer %v;\nthe command has %v, %v, %v",
			ws, e2e, layer, workloadOrder, endToEnd, perLayer)
	}
}

// TestSelfTime checks that overlapping children are counted once and that
// children are clipped to their parent.
func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &tracer{spans: []span{
		{name: "op", parent: -1, start: ms(0), end: ms(10)},
		{name: "a", parent: 0, start: ms(1), end: ms(4)},
		{name: "b", parent: 0, start: ms(3), end: ms(6)},
		{name: "c", parent: 0, start: ms(8), end: ms(9)},
		{name: "d", parent: 3, start: ms(8), end: ms(9)},
	}}
	want := []time.Duration{ms(4), ms(3), ms(3), 0, ms(1)}
	if got := tr.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	tr.spans[2].end = ms(11)
	if tr.validate() == nil {
		t.Fatal("a child ending after its parent passed validation")
	}
}
