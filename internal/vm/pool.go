package vm

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Pool recycles Machines for request serving: instead of paying NewShared's
// construction per request, a machine is taken from the pool, runs one
// request, and is Reset back to its just-constructed state for the next.
// All pooled machines share one predecoded Code and one Config, so every
// request of a pool is deterministic and bit-identical to a fresh machine's
// run. Safe for concurrent use.
type Pool struct {
	prog *ir.Program
	code *Code
	cfg  Config

	mu      sync.Mutex
	free    []*Machine
	maxIdle int
	news    int64
	reuses  int64
}

// NewPool returns an empty pool producing machines for the given shared
// predecoded program. The Code must come from Predecode of the same
// ir.Program, as for NewShared.
func NewPool(p *ir.Program, code *Code, cfg Config) *Pool {
	return &Pool{prog: p, code: code, cfg: cfg, maxIdle: 1024}
}

// Get returns a ready machine: a recycled one when available, otherwise a
// freshly constructed one. The caller runs it and must hand it back with
// Put (or drop it, which just forgoes the reuse).
func (pl *Pool) Get() (*Machine, error) {
	pl.mu.Lock()
	if n := len(pl.free); n > 0 {
		m := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.reuses++
		pl.mu.Unlock()
		return m, nil
	}
	pl.news++
	pl.mu.Unlock()
	return NewShared(pl.prog, pl.code, pl.cfg)
}

// Put resets m and returns it to the pool. A machine whose Reset fails is
// dropped — it cannot be made equivalent to a fresh one. Beyond maxIdle
// retained machines the record is dropped too (steady state never hits
// this: the pool holds at most the peak concurrency).
func (pl *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	if err := m.Reset(); err != nil {
		return
	}
	pl.mu.Lock()
	if len(pl.free) < pl.maxIdle {
		pl.free = append(pl.free, m)
	}
	pl.mu.Unlock()
}

// Serve runs one request end to end: Get, Run(entry), Put. A Go panic
// inside Run is contained: the request's Result carries TrapInternal and
// the machine, whose state the panic left undefined, is dropped instead of
// returned to the pool.
func (pl *Pool) Serve(entry string) (r *Result, err error) {
	m, err := pl.Get()
	if err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			t := &Trap{Kind: TrapInternal, Msg: fmt.Sprint(p), PC: "<internal>"}
			r, err = &Result{Trap: TrapInternal, Err: t}, nil
		}
	}()
	r = m.Run(entry)
	pl.Put(m)
	return r, nil
}

// Stats reports how many Gets were served by recycling a pooled machine vs
// constructing a fresh one.
func (pl *Pool) Stats() (reuses, news int64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.reuses, pl.news
}
