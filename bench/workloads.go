package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/vm"
)

// env is the state of one workload run: its inputs, the metrics it has
// produced and the counters it keeps.
type env struct {
	window  time.Duration // how long the timed phase measures
	setups  int           // set-up repetitions; setup_s is their median
	quick   bool          // skip warm-ups and time as few operations as a traced run needs (tests)
	rng     *rand.Rand
	tr      *tracer // nil in an untraced run
	check   checker
	runs    runStats
	ref     refClock
	proto   protocol
	metrics []metric

	// The timed operations, the runtime counters around them, and the peak
	// RSS when they ended, before the checks and arithmetic that follow.
	ops          []opSample
	goFrom, goTo goSnapshot
	peakRSS      float64
}

// setupRepeats is how many times each workload builds what it reuses.
const setupRepeats = 7

func newEnv(workload string, seed int64, seconds float64, traced bool) (*env, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	e := &env{
		window: time.Duration(seconds * float64(time.Second)),
		setups: setupRepeats,
		rng:    rand.New(rand.NewSource(seed)),
		check:  checker{want: want},
		proto:  newProtocol(workload, seed, seconds, traced),
		runs:   runStats{byBackend: map[string]*[2]int64{}},
	}
	if traced {
		e.tr = newTracer()
	}
	return e, nil
}

func (e *env) put(name string, value float64, unit string) {
	e.metrics = append(e.metrics, metric{name, value, unit})
}

func (e *env) count(name string, n int) { e.proto.Counts[name] = n }

// warm is n warm-up operations, or none in a quick run.
func (e *env) warm(n int) int {
	if e.quick {
		return 0
	}
	return n
}

// setup builds what the workload reuses e.setups times, each time from a
// freshly collected heap, and reports the median time at reference speed as
// setup_s, and the median wall time as setup_s_raw.
func (e *env) setup(build func() error) error {
	var raw, scaled []float64
	e.ref.start()
	for i := 0; i < e.setups; i++ {
		tm := e.ref.begin(nil, -1)
		if err := build(); err != nil {
			return err
		}
		r, s := tm.stop()
		raw = append(raw, r)
		scaled = append(scaled, s)
	}
	e.count("setups", e.setups)
	e.put("setup_s", median(scaled), "s")
	e.put("setup_s_raw", median(raw), "s")
	return nil
}

// compileAll compiles every cell, counting each compile as an operation.
func (e *env) compileAll(cs []cell, tr *tracer, parent int32) ([]*unit, error) {
	units := make([]*unit, len(cs))
	for i, c := range cs {
		u, err := compile(c, tr, parent)
		if !e.check.record(c, nil, err) {
			return nil, err
		}
		units[i] = u
	}
	return units, nil
}

// run executes u on a fresh machine, checks the outcome and adds it to the
// execution counters. It returns nil if the machine could not be built.
func (e *env) run(u *unit, tr *tracer, parent int32) *vm.Result {
	s := tr.begin("vm.machine", parent, u.cell)
	m, err := u.newMachine()
	tr.end(s, 0)
	if err != nil {
		e.check.record(u.cell, nil, err)
		return nil
	}
	s = tr.begin("vm.run", parent, u.cell)
	r := m.Run("main")
	tr.end(s, r.Steps)
	e.check.record(u.cell, r, nil)
	e.runs.add(u.backend, r)
	return r
}

// opSample is one timed operation.
type opSample struct {
	secs   float64 // wall time
	scaled float64 // wall time at reference speed
	work   float64 // steps, cells or compiles it did
	traced bool
}

// measure runs warm untimed operations, then timed ones until the window
// closes, at least minOps of them. In a traced run every other timed
// operation is traced, so one process yields both the spans and the
// untraced times that trace_overhead_pct compares them with; minOps must be
// at least 2 for it to have one of each.
func (e *env) measure(warm, minOps int, op func(tr *tracer, root int32, tm *opTimer) float64) {
	for i := 0; i < e.warm(warm); i++ {
		op(nil, -1, nil)
	}
	if e.quick {
		minOps = 2
	}
	e.goFrom = readGo()
	e.ref.start()
	deadline := time.Now().Add(e.window)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr
		}
		tr.nextOp()
		root := tr.begin("op", -1, cell{})
		tm := e.ref.begin(tr, root)
		work := op(tr, root, tm)
		tr.end(root, 0)
		raw, scaled := tm.stop()
		e.ops = append(e.ops, opSample{raw, scaled, work, tr != nil})
	}
	e.endWindow()
	e.count("ops", len(e.ops))
}

// endWindow reads the runtime counters and the peak RSS at the end of the
// timed window.
func (e *env) endWindow() {
	e.goTo = readGo()
	e.peakRSS = peakRSSMB()
}

// untraced returns the untraced operations.
func (e *env) untraced() []opSample {
	var out []opSample
	for _, s := range e.ops {
		if !s.traced {
			out = append(out, s)
		}
	}
	return out
}

func field(ss []opSample, f func(opSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func wall(s opSample) float64   { return s.secs }
func scaled(s opSample) float64 { return s.scaled }

// putOpMetrics reports the end-to-end metrics shared by the batch
// workloads, at reference speed: the median and p90 time of an untraced
// operation, and its median rate. The median wall time goes with them.
func (e *env) putOpMetrics(ss []opSample) {
	e.put("op_ms", median(field(ss, scaled))*1e3, "ms")
	e.put("op_p90_ms", quantile(field(ss, scaled), 0.9)*1e3, "ms")
	e.put("work_per_s", median(field(ss, func(s opSample) float64 { return s.work / s.scaled })), "1/s")
	e.put("op_ms_raw", median(field(ss, wall))*1e3, "ms")
}

// interpHot times the interpreter alone: the four micros under every
// backend, compiled once, each run on a fresh machine. Their cycles are the
// same under every backend, so all of the time is dispatch and blocks.
func interpHot(e *env) error {
	cs := cells(microPrograms(), backends...)
	var units []*unit
	err := e.setup(func() (err error) {
		units, err = e.compileAll(cs, e.tr, -1)
		return err
	})
	if err != nil {
		return err
	}
	e.measure(3, 5, func(tr *tracer, root int32, tm *opTimer) float64 {
		var steps int64
		for _, i := range e.rng.Perm(len(units)) {
			if r := e.run(units[i], tr, root); r != nil {
				steps += r.Steps
			}
			tm.lap()
		}
		return float64(steps)
	})
	ss := e.untraced()
	e.putOpMetrics(ss)
	e.put("interp_steps_per_sec", median(field(ss, func(s opSample) float64 { return s.work / s.secs })), "1/s")
	return nil
}

// paperTables is the paper's experiment: every SPEC stand-in under every
// backend, compiled, loaded on a fresh machine and run, one table per
// operation. It is the workload where the enforcement layers do real work.
func paperTables(e *env) error {
	cs := cells(specPrograms(), backends...)
	err := e.setup(func() error {
		_, err := e.compileAll(cs, e.tr, -1)
		return err
	})
	if err != nil {
		return err
	}
	cycles := map[cell]int64{}
	e.measure(1, 3, func(tr *tracer, root int32, tm *opTimer) float64 {
		for _, i := range e.rng.Perm(len(cs)) {
			tm.lap()
			c := cs[i]
			u, err := compile(c, tr, root)
			if err != nil {
				e.check.record(c, nil, err)
				continue
			}
			r := e.run(u, tr, root)
			if r == nil {
				continue
			}
			// Simulated cycles are deterministic; a change between
			// tables is a failure of the table, not noise.
			if prev, ok := cycles[c]; ok && prev != r.Cycles {
				e.check.fail("%s/%s: cycles %d, earlier table %d", c.prog.name, c.backend, r.Cycles, prev)
			}
			cycles[c] = r.Cycles
		}
		return float64(len(cs))
	})
	ss := e.untraced()
	e.putOpMetrics(ss)
	e.put("table_pass_s", median(field(ss, wall)), "s")
	e.put("table_pass_n", float64(len(ss)), "count")
	for _, b := range backends[1:] {
		var ratios []float64
		for _, p := range specPrograms() {
			v, x := cycles[cell{p, "vanilla"}], cycles[cell{p, b}]
			if v == 0 || x == 0 {
				return fmt.Errorf("ovh_%s_pct: no cycles for %s", b, p.name)
			}
			ratios = append(ratios, float64(x)/float64(v))
		}
		e.put("ovh_"+b+"_pct", 100*(geomean(ratios)-1), "%")
	}
	return nil
}

// compileCorpus times the compiler alone: every workload source under every
// backend through compile and predecode, nothing executed inside the
// window. Afterwards each program of the last pass runs once to check it.
func compileCorpus(e *env) error {
	cs := cells(corpus(), backends...)
	ref := make([]analysis.Stats, len(cs))
	err := e.setup(func() error {
		units, err := e.compileAll(cs, e.tr, -1)
		for i, u := range units {
			ref[i] = u.compiled.Stats
		}
		return err
	})
	if err != nil {
		return err
	}
	last := make([]*unit, len(cs))
	e.measure(5, 5, func(tr *tracer, root int32, tm *opTimer) float64 {
		for _, i := range e.rng.Perm(len(cs)) {
			tm.lap()
			u, err := compile(cs[i], tr, root)
			if err == nil && u.compiled.Stats != ref[i] {
				err = fmt.Errorf("%s/%s: stats %+v, set-up compile gave %+v",
					cs[i].prog.name, cs[i].backend, u.compiled.Stats, ref[i])
			}
			if e.check.record(cs[i], nil, err) {
				last[i] = u
			}
		}
		return float64(len(cs))
	})
	ss := e.untraced()
	e.putOpMetrics(ss)
	e.put("compile_pass_ms", median(field(ss, wall))*1e3, "ms")
	e.put("compile_pass_ms_p90", quantile(field(ss, wall), 0.9)*1e3, "ms")
	e.put("compile_pass_n", float64(len(ss)), "count")

	e.tr.outsideWindow()
	for _, u := range last {
		if u != nil {
			e.run(u, e.tr, -1)
		}
	}
	return nil
}

// runStats sums the counters of every program run.
type runStats struct {
	runs, steps, cycles, dispatches int64
	blockSteps, blockEntries        int64
	pacSigns, pacAuths              int64
	spsEntriesPeak, spsBytesPeak    int64
	byBackend                       map[string]*[2]int64 // cycles, steps
}

func (s *runStats) add(bk string, r *vm.Result) {
	s.runs++
	s.steps += r.Steps
	s.cycles += r.Cycles
	s.dispatches += r.Dispatches
	s.blockSteps += r.BlockSteps
	s.blockEntries += r.BlockEntries
	s.pacSigns += r.PacSigns
	s.pacAuths += r.PacAuths
	s.spsEntriesPeak = max(s.spsEntriesPeak, r.Mem.SPSEntries)
	s.spsBytesPeak = max(s.spsBytesPeak, r.Mem.SPSBytes)
	c := s.byBackend[bk]
	if c == nil {
		c = &[2]int64{}
		s.byBackend[bk] = c
	}
	c[0] += r.Cycles
	c[1] += r.Steps
}

// finish adds the metrics every workload reports once it has run.
func (e *env) finish() {
	e.put("fail_frac", ratio(float64(e.check.failed), float64(e.check.attempted)), "frac")
	e.put("peak_rss_mb", e.peakRSS, "MB")
	e.put("host_probe_ms", median(e.ref.probes), "ms")
	if e.tr != nil {
		e.putLayerMetrics()
	}
}

// putLayerMetrics reports the per-layer metrics of a traced run: each
// layer's self time from the spans, the VM's own counters, and the Go
// runtime's allocation, pause and scheduling figures over the window.
func (e *env) putLayerMetrics() {
	self := e.tr.selfTimes()
	calls := e.tr.aggregate(self, func(s *span) string { return s.name })
	for _, n := range []string{"minic.parse", "minic.sema", "irgen.lower", "analysis.pointsto",
		"analysis.collect", "instrument", "ir.verify", "vm.predecode"} {
		e.put(n+".ms", calls[n].meanMs(), "ms")
	}
	if c := calls["minic.parse"]; c != nil {
		e.put("minic.parse.mb_per_s", ratio(float64(c.work)/1e6, c.self.Seconds()), "MB/s")
	}
	if c := calls["irgen.lower"]; c != nil {
		e.put("irgen.ir_instrs", ratio(float64(c.work), float64(c.calls)), "count")
	}
	if c := calls["instrument"]; c != nil {
		e.put("instrument.instrumented", ratio(float64(c.work), float64(c.calls)), "count")
	}
	e.put("vm.newmachine.us_p50", calls["vm.machine"].quantileUs(0.5), "us")
	if c := calls["vm.run"]; c != nil {
		e.put("vm.run.ns_per_step", ratio(float64(c.self.Nanoseconds()), float64(c.work)), "ns")
	}

	runs := func(key func(s *span) string) map[string]*callStats {
		return e.tr.aggregate(self, func(s *span) string {
			if s.name != "vm.run" {
				return ""
			}
			return key(s)
		})
	}
	byBackend := runs(func(s *span) string { return s.backend })
	for _, b := range backends {
		if c := byBackend[b]; c != nil {
			e.put("vm.run.ns_per_step."+b, ratio(float64(c.self.Nanoseconds()), float64(c.work)), "ns")
		}
	}
	if e.proto.Workload == "interp-hot" {
		byProgram := runs(func(s *span) string { return s.program })
		for _, p := range microPrograms() {
			if c := byProgram[p.name]; c != nil {
				e.put("vm.run.steps_per_sec."+strings.TrimPrefix(p.name, "micro."), ratio(float64(c.work), c.self.Seconds()), "1/s")
			}
		}
	}

	r := &e.runs
	absorbed := r.blockSteps - r.blockEntries
	e.put("vm.dispatches_per_step", ratio(float64(r.dispatches), float64(r.steps)), "ratio")
	e.put("vm.block_frac", ratio(float64(absorbed), float64(r.steps)), "frac")
	e.put("vm.fused_frac", ratio(float64(r.steps-r.dispatches-absorbed), float64(r.steps)), "frac")
	e.put("vm.cycles_per_step", ratio(float64(r.cycles), float64(r.steps)), "ratio")
	for _, b := range backends {
		if c := r.byBackend[b]; c != nil {
			e.put("vm.cycles_per_step."+b, ratio(float64(c[0]), float64(c[1])), "ratio")
		}
	}
	e.put("vm.pac.signs", ratio(float64(r.pacSigns), float64(r.runs)), "count")
	e.put("vm.pac.auths", ratio(float64(r.pacAuths), float64(r.runs)), "count")
	e.put("vm.sps.entries_peak", float64(r.spsEntriesPeak), "count")
	e.put("vm.sps.kb_peak", float64(r.spsBytesPeak)/1024, "KB")

	shares := e.tr.aggregate(self, func(s *span) string {
		if s.op < 0 {
			return ""
		}
		return layerGroup(s.name)
	})
	var total time.Duration
	for _, c := range shares {
		total += c.self
	}
	for _, g := range []string{"compile", "vm.machine", "vm.run", "vm.pool", "gen"} {
		var t time.Duration
		if c := shares[g]; c != nil {
			t = c.self
		}
		e.put(g+".share", ratio(t.Seconds(), total.Seconds()), "frac")
	}

	e.put("go.alloc_mb_per_op", allocBytes(e.goFrom, e.goTo)/1e6/float64(len(e.ops)), "MB")
	e.put("go.gc_pause_ms_p99", histQuantileMs(e.goFrom, e.goTo, 1, 0.99), "ms")
	e.put("go.sched_latency_ms_p99", histQuantileMs(e.goFrom, e.goTo, 2, 0.99), "ms")

	var plain, traced []float64
	for _, s := range e.ops {
		if s.traced {
			traced = append(traced, s.scaled)
		} else {
			plain = append(plain, s.scaled)
		}
	}
	e.put("trace_overhead_pct", 100*(ratio(median(traced), median(plain))-1), "%")
}

// layerGroup maps a span name to the layer its self time is charged to in
// the *.share metrics: the compiler stages together, the machine, the run,
// the pool, and the benchmark's own code ("gen"). Host-speed probes are
// left out.
func layerGroup(name string) string {
	switch name {
	case "vm.machine", "vm.run":
		return name
	case "vm.pool.get", "vm.pool.put":
		return "vm.pool"
	case "op", "request":
		return "gen"
	case "bench.probe":
		return ""
	default:
		return "compile"
	}
}
