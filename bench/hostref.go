package main

import (
	"math"
	"runtime"
	"time"
)

// The host-speed probe. On a shared host the interpreter slows by up to 2x
// when a co-tenant contends for the core, while a plain arithmetic loop
// hardly moves: the contention is in what interpreters lean on (indirect
// branches, the first-level caches). The probe is a small interpreter of its
// own, independent of the repository's code, timed next to every measured
// operation. The end-to-end times are reported at reference speed: each raw
// time is multiplied by refNominalMs over the probe times around it, so a
// slow spell of the host scales both and cancels.

// refNominalMs is the probe's time on the host the bounds in BENCHMARK.json
// were calibrated on (2 vCPUs of an Intel Xeon at 2.1 GHz, Go 1.24) when no
// co-tenant contended. Elsewhere the reference-speed times differ from wall
// times by a constant factor, which cancels when two commits are compared.
const refNominalMs = 1.25

// refIters is the probe program's loop count: about 1.2 ms per probe run.
const refIters = 50000

type refIns struct {
	op      uint8
	a, b, c int32
}

const (
	refConst = iota
	refAdd
	refMul
	refXor
	refShr
	refLoad
	refStore
	refLt
	refBr
	refBrz
	refCall
	refRet
	refHalt
)

// refProg loops refIters times calling a function that mixes an
// accumulator with a table in memory.
var refProg = []refIns{
	{refConst, 0, 0, 0},        // 0: i = 0
	{refConst, 1, refIters, 0}, // 1: n
	{refConst, 2, 1, 0},        // 2: acc = 1
	{refLt, 3, 0, 1},           // 3: loop: r3 = i < n
	{refBrz, 3, 9, 0},          // 4: if !r3 goto 9
	{refCall, 10, 0, 0},        // 5: call 10
	{refConst, 4, 1, 0},        // 6
	{refAdd, 0, 0, 4},          // 7: i++
	{refBr, 3, 0, 0},           // 8: goto loop
	{refHalt, 0, 0, 0},         // 9
	{refConst, 5, 31, 0},       // 10: acc *= 31
	{refMul, 2, 2, 5},          // 11
	{refConst, 6, 1023, 0},     // 12
	{refLoad, 7, 2, 6},         // 13: acc ^= mem[acc & 1023]
	{refXor, 2, 2, 7},          // 14
	{refShr, 8, 2, 0},          // 15: mem[i & 1023] = acc >> (i & 7)
	{refStore, 0, 8, 6},        // 16
	{refRet, 0, 0, 0},          // 17
}

var refMem [1024]int64

// refRun interprets refProg once and returns its accumulator.
func refRun() int64 {
	var r [16]int64
	var stack [8]int
	sp, pc := 0, 0
	for {
		in := &refProg[pc]
		pc++
		switch in.op {
		case refConst:
			r[in.a] = int64(in.b)
		case refAdd:
			r[in.a] = r[in.b] + r[in.c]
		case refMul:
			r[in.a] = r[in.b] * r[in.c]
		case refXor:
			r[in.a] = r[in.b] ^ r[in.c]
		case refShr:
			r[in.a] = r[in.b] >> (uint64(r[in.c]) & 7)
		case refLoad:
			r[in.a] = refMem[r[in.b]&r[in.c]]
		case refStore:
			refMem[r[in.a]&r[in.c]] = r[in.b]
		case refLt:
			r[in.a] = 0
			if r[in.b] < r[in.c] {
				r[in.a] = 1
			}
		case refBr:
			pc = int(in.a)
		case refBrz:
			if r[in.a] == 0 {
				pc = int(in.b)
			}
		case refCall:
			stack[sp] = pc
			sp++
			pc = int(in.a)
		case refRet:
			sp--
			pc = stack[sp]
		case refHalt:
			return r[2]
		}
	}
}

// refSink keeps the probe's result live.
var refSink int64

// probeMs times the probe: the fastest of three runs, so that one
// preemption or collection does not count as a slow host.
func probeMs() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		refSink += refRun()
		best = min(best, time.Since(t0).Seconds()*1e3)
	}
	return best
}

// probeEvery is the longest stretch of measured time between two probes.
const probeEvery = 100 * time.Millisecond

// refClock keeps the probes of a run. Each stretch of measured time lies
// between two probes and is scaled by refNominalMs over their mean.
type refClock struct {
	last   float64   // the latest probe
	probes []float64 // every probe, for host_probe_ms
}

// start collects the heap and takes the first probe of a measurement.
func (c *refClock) start() {
	runtime.GC()
	c.last = probeMs()
	c.probes = append(c.probes, c.last)
}

// next probes and returns the factor that brings the stretch since the
// previous probe to reference speed.
func (c *refClock) next() float64 {
	p := probeMs()
	c.probes = append(c.probes, p)
	f := refNominalMs / ((c.last + p) / 2)
	c.last = p
	return f
}

// opTimer times one operation in stretches, each closed by a probe.
type opTimer struct {
	c           *refClock
	t0          time.Time
	raw, scaled float64 // seconds of the closed stretches
	tr          *tracer // records the probes of a traced operation
	root        int32
}

func (c *refClock) begin(tr *tracer, root int32) *opTimer {
	return &opTimer{c: c, t0: time.Now(), tr: tr, root: root}
}

// lap probes if the current stretch has run for probeEvery. Operations
// call it where a pause is harmless, so a long one is scaled part by part.
// A nil timer, as in a warm-up, never probes.
func (t *opTimer) lap() {
	if t != nil && time.Since(t.t0) >= probeEvery {
		t.close(false)
		t.t0 = time.Now()
	}
}

// stop ends the operation, after its spans, and returns its wall and
// reference-speed seconds. It collects the heap before the last probe, so
// the next operation starts from a clean heap and no collection overlaps
// the probe.
func (t *opTimer) stop() (raw, scaled float64) {
	t.close(true)
	return t.raw, t.scaled
}

// close ends a stretch with a probe. A probe inside the operation gets a
// span, so that its time is not charged to the benchmark's own code.
func (t *opTimer) close(last bool) {
	d := time.Since(t.t0).Seconds()
	var f float64
	if last {
		runtime.GC()
		f = t.c.next()
	} else {
		s := t.tr.begin("bench.probe", t.root, cell{})
		f = t.c.next()
		t.tr.end(s, 0)
	}
	t.raw += d
	t.scaled += d * f
}
