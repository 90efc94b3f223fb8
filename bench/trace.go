package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	name    string // the layer call, e.g. "minic.parse" or "vm.run"
	program string // the program or page it worked on
	backend string
	op      int32 // the operation it belongs to; -1 during set-up
	parent  int32 // index of the enclosing span; -1 for a root
	start   time.Duration
	end     time.Duration // both measured from the tracer's epoch
	work    int64         // units done: source bytes, IR instructions, steps...
}

// tracer keeps the spans of a traced run in memory. A nil *tracer records
// nothing, so untraced code paths pass nil. It is not safe for concurrent
// use: each run records from one goroutine at a time.
type tracer struct {
	epoch time.Time
	op    int32
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// nextOp starts a new operation; later spans belong to it.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// outsideWindow marks later spans as outside the timed window, like those
// recorded during set-up.
func (t *tracer) outsideWindow() {
	if t != nil {
		t.op = -1
	}
}

func (t *tracer) since(tm time.Time) time.Duration { return tm.Sub(t.epoch) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, c cell) int32 {
	if t == nil {
		return -1
	}
	return t.add(name, parent, c, time.Now(), time.Time{})
}

// end closes span id, recording the work it did.
func (t *tracer) end(id int32, work int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	s.work = work
}

func (t *tracer) setWork(id int32, work int64) {
	if t != nil {
		t.spans[id].work = work
	}
}

// add records a span whose times are already known and returns its id. A
// zero end leaves it open for end.
func (t *tracer) add(name string, parent int32, c cell, start, end time.Time) int32 {
	s := span{name: name, program: c.prog.name, backend: c.backend,
		op: t.op, parent: parent, start: t.since(start)}
	if !end.IsZero() {
		s.end = t.since(end)
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, counting overlapping children once.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].start < t.spans[ks[b]].start })
		var covered time.Duration
		lo, hi := s.start, s.start // the current merged run of children
		for _, k := range ks {
			cs, ce := max(t.spans[k].start, s.start), min(t.spans[k].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > hi {
				covered += hi - lo
				lo, hi = cs, ce
			} else {
				hi = max(hi, ce)
			}
		}
		covered += hi - lo
		self[i] = s.end - s.start - covered
	}
	return self
}

// validate checks that every span is closed and lies within its parent.
func (t *tracer) validate() error {
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent >= 0 {
			p := t.spans[s.parent]
			if s.start < p.start || s.end > p.end {
				return fmt.Errorf("span %d (%s) extends past its parent %d (%s)", i, s.name, s.parent, p.name)
			}
		}
	}
	return nil
}

// callStats aggregates the spans of one layer call.
type callStats struct {
	calls int
	self  time.Duration
	work  int64
	selfs []time.Duration
}

func (c *callStats) meanMs() float64 {
	if c == nil || c.calls == 0 {
		return 0
	}
	return c.self.Seconds() * 1e3 / float64(c.calls)
}

// quantileUs is the q-quantile of the spans' self times in microseconds.
func (c *callStats) quantileUs(q float64) float64 {
	if c == nil {
		return 0
	}
	xs := make([]float64, len(c.selfs))
	for i, d := range c.selfs {
		xs[i] = d.Seconds() * 1e6
	}
	return quantile(xs, q)
}

// aggregate groups spans by key, skipping those key maps to "".
func (t *tracer) aggregate(self []time.Duration, key func(s *span) string) map[string]*callStats {
	out := map[string]*callStats{}
	for i := range t.spans {
		k := key(&t.spans[i])
		if k == "" {
			continue
		}
		c := out[k]
		if c == nil {
			c = &callStats{}
			out[k] = c
		}
		c.calls++
		c.self += self[i]
		c.work += t.spans[i].work
		c.selfs = append(c.selfs, self[i])
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func (t *tracer) writeSpans(path string, self []time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		err = enc.Encode(map[string]any{
			"id": i, "op": s.op, "parent": s.parent, "name": s.name,
			"program": s.program, "backend": s.backend,
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(),
			"self_ns": self[i].Nanoseconds(), "work": s.work,
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
