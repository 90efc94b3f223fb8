package main

import (
	"strings"
	"time"

	"repro/internal/vm"
)

// The serve-open traffic: one-request web pages under cpi, served from
// machine pools by one worker, with Poisson arrivals.
const (
	serveBackend = "cpi"
	serveRate    = 250.0                 // req/s of the latency figures
	serveLimit   = 20 * time.Millisecond // p99 latency the capacity must keep
	serveBacklog = 0.01                  // share of arrivals that may still wait when the arrivals end
)

// serveMix is the page mix: mostly static pages, some WSGI pages and a few
// dynamic ones, whose run sets the tail.
var serveMix = []struct {
	page   string
	weight int
}{{"serve-static", 70}, {"serve-wsgi", 25}, {"serve-dynamic", 5}}

type server struct {
	e     *env
	units []*unit // one per serveMix entry
	pools []*vm.Pool
}

// pick draws a page index from the mix.
func (s *server) pick() int {
	r := s.e.rng.Intn(100)
	for i, m := range serveMix {
		if r < m.weight {
			return i
		}
		r -= m.weight
	}
	return len(serveMix) - 1
}

// served is one request served back to back with the others. respond is
// the time from taking it to its answer (Get and Run); busy is the time it
// held the worker (Get, Run, the check and Put). Both are seconds of wall
// time; scale brings them to reference speed.
type served struct {
	traced        bool
	respond, busy float64
	scale         float64
}

// serve handles one request: Get, Run, Put.
func (s *server) serve(page int, traced bool) served {
	u, pool := s.units[page], s.pools[page]
	start := time.Now()
	m, err := pool.Get()
	got := time.Now()
	var r *vm.Result
	if err == nil {
		r = m.Run("main")
	}
	ran := time.Now()
	if s.e.check.record(u.cell, r, err) {
		s.e.runs.add(u.backend, r)
	}
	putStart := time.Now()
	pool.Put(m)
	put := time.Now()
	if traced {
		tr := s.e.tr
		tr.nextOp()
		root := tr.add("request", -1, u.cell, start, ran)
		tr.add("vm.pool.get", root, u.cell, start, got)
		run := tr.add("vm.run", root, u.cell, got, ran)
		if r != nil {
			tr.setWork(run, r.Steps)
		}
		tr.add("vm.pool.put", -1, u.cell, putStart, put)
	}
	return served{traced: traced, respond: ran.Sub(start).Seconds(), busy: put.Sub(start).Seconds()}
}

// serveFor serves requests back to back for d of measured time, alternate
// ones traced in a traced run, with a host-speed probe every probeEvery.
func (s *server) serveFor(d time.Duration) []served {
	c := &s.e.ref
	c.start()
	var out []served
	open := 0 // first request of the stretch since the last probe
	var measured time.Duration
	t0 := time.Now()
	for measured < d {
		out = append(out, s.serve(s.pick(), s.e.tr != nil && len(out)%2 == 1))
		if el := time.Since(t0); el >= probeEvery || measured+el >= d {
			measured += el
			f := c.next()
			for i := open; i < len(out); i++ {
				out[i].scale = f
			}
			open = len(out)
			t0 = time.Now()
		}
	}
	return out
}

// queue is the open loop: one worker serving, in arrival order, requests
// that arrive at rate with the given unit-mean exponential gaps, request i
// answered respond[i] after the worker takes it and holding the worker for
// busy[i]. It returns each latency, from arrival to answer, each wait for
// the worker, and how many requests were still unanswered at the last
// arrival.
func queue(gaps []float64, rate float64, respond, busy []float64) (lat, wait []float64, backlog int) {
	n := len(gaps)
	lat, wait = make([]float64, n), make([]float64, n)
	answered := make([]float64, n)
	var at, free float64
	for i, g := range gaps {
		at += g / rate
		start := max(at, free)
		wait[i] = start - at
		lat[i] = wait[i] + respond[i]
		answered[i] = at + lat[i]
		free = start + busy[i]
	}
	for _, t := range answered {
		if t > at {
			backlog++
		}
	}
	return lat, wait, backlog
}

// serveOpen measures the service of pooled pages and reports what one
// worker gives Poisson arrivals: the latency at serveRate, from arrival to
// answer, and the capacity, the highest rate whose p99 latency stays within
// serveLimit without a backlog. It is the workload where vm.Pool and
// Machine.Reset run.
//
// The requests are served back to back and the open loop is computed from
// their times: with one worker in arrival order, the wait of each request is
// fixed by the arrivals and the service times before it. Waiting out the
// arrivals in real time would add the host's wake-up delays and the cold
// caches an idle core returns to, which on a shared host vary from run to
// run far more than the code's own cost.
func serveOpen(e *env) error {
	pages := map[string]program{}
	for _, p := range servePages() {
		pages[p.name] = p
	}
	s := &server{e: e}
	err := e.setup(func() error {
		s.units, s.pools = nil, nil
		for i, m := range serveMix {
			c := cell{pages[m.page], serveBackend}
			u, err := compile(c, e.tr, -1)
			if !e.check.record(c, nil, err) {
				return err
			}
			// One run on a fresh machine checks the page; one request
			// through the pool leaves it a machine to recycle.
			e.run(u, e.tr, -1)
			s.units = append(s.units, u)
			s.pools = append(s.pools, vm.NewPool(u.compiled.IR, u.code, u.compiled.VMConfig()))
			s.serve(i, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !e.quick {
		warm := time.Now()
		for time.Since(warm) < max(500*time.Millisecond, e.window/20) {
			s.serve(s.pick(), false)
		}
	}

	e.goFrom = readGo()
	reqs := s.serveFor(e.window)
	e.endWindow()
	e.count("requests", len(reqs))

	n := len(reqs)
	gaps := make([]float64, n)
	respond, busy := make([]float64, n), make([]float64, n)
	scaledRespond, scaledBusy := make([]float64, n), make([]float64, n)
	var busyTotal, scaledBusyTotal float64
	for i, r := range reqs {
		gaps[i] = e.rng.ExpFloat64()
		respond[i], busy[i] = r.respond, r.busy
		scaledRespond[i], scaledBusy[i] = r.respond*r.scale, r.busy*r.scale
		busyTotal += busy[i]
		scaledBusyTotal += scaledBusy[i]
		e.ops = append(e.ops, opSample{secs: r.respond, scaled: scaledRespond[i], work: 1, traced: r.traced})
	}
	lat, wait, _ := queue(gaps, serveRate, respond, busy)
	scaledLat, _, _ := queue(gaps, serveRate, scaledRespond, scaledBusy)
	saturation := float64(n) / busyTotal

	// Bisect for the capacity between no load and the saturation rate.
	lo, hi := 0.0, saturation
	for i := 0; i < 30; i++ {
		rate := (lo + hi) / 2
		l, _, backlog := queue(gaps, rate, respond, busy)
		if quantile(l, 0.99) <= serveLimit.Seconds() && float64(backlog) <= serveBacklog*float64(len(l)) {
			lo = rate
		} else {
			hi = rate
		}
	}

	e.put("op_ms", median(scaledLat)*1e3, "ms")
	e.put("op_p90_ms", quantile(scaledLat, 0.9)*1e3, "ms")
	e.put("work_per_s", float64(n)/scaledBusyTotal, "1/s")
	e.put("op_ms_raw", median(lat)*1e3, "ms")
	e.put("serve_p50_ms", median(lat)*1e3, "ms")
	e.put("serve_p99_ms", quantile(lat, 0.99)*1e3, "ms")
	e.put("serve_capacity_rps", lo, "1/s")
	e.put("serve_saturation_rps", saturation, "1/s")
	if e.tr == nil {
		return nil
	}

	e.put("serve.queue_ms_p50", median(wait)*1e3, "ms")
	e.put("serve.queue_ms_p99", quantile(wait, 0.99)*1e3, "ms")
	self := e.tr.selfTimes()
	calls := e.tr.aggregate(self, func(sp *span) string {
		if sp.op < 0 {
			return ""
		}
		if sp.name == "vm.run" {
			return "vm.run." + strings.TrimPrefix(sp.program, "serve-")
		}
		return sp.name
	})
	e.put("vm.pool.get_us_p99", calls["vm.pool.get"].quantileUs(0.99), "us")
	e.put("vm.pool.put_us_p50", calls["vm.pool.put"].quantileUs(0.5), "us")
	e.put("vm.pool.put_us_p99", calls["vm.pool.put"].quantileUs(0.99), "us")
	for _, m := range serveMix {
		page := strings.TrimPrefix(m.page, "serve-")
		c := calls["vm.run."+page]
		e.put("vm.run.ms_p50."+page, c.quantileUs(0.5)/1e3, "ms")
		e.put("vm.run.ms_p99."+page, c.quantileUs(0.99)/1e3, "ms")
	}
	var reuses, news int64
	for _, p := range s.pools {
		r, n := p.Stats()
		reuses += r
		news += n
	}
	e.put("vm.pool.reuse_frac", ratio(float64(reuses), float64(reuses+news)), "frac")
	e.put("go.alloc_kb_per_req", allocBytes(e.goFrom, e.goTo)/1e3/float64(len(e.ops)), "KB")
	return nil
}
