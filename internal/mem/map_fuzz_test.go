package mem

import (
	"errors"
	"testing"
)

// refMemory is the reference model for FuzzMemMap: one permission entry
// per mapped page and one entry per written byte, with loads and stores
// walked a byte at a time. Its Map is the per-page loop the range table
// replaced.
type refMemory struct {
	perms map[uint64]Perm
	bytes map[uint64]byte
}

func (r *refMemory) Map(addr, size uint64, perm Perm) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; pn <= last; pn++ {
		r.perms[pn] = perm
	}
}

func (r *refMemory) mapped(a uint64) bool {
	_, ok := r.perms[a>>pageShift]
	return ok
}

func (r *refMemory) Reset() {
	clear(r.perms)
	clear(r.bytes)
}

// access checks one byte against need, the permission the access requires.
func (r *refMemory) access(a uint64, need Perm, kind FaultKind) error {
	perm, ok := r.perms[a>>pageShift]
	if !ok {
		return &Fault{Addr: a, Kind: FaultUnmapped}
	}
	if perm&need == 0 {
		return &Fault{Addr: a, Kind: kind}
	}
	return nil
}

func (r *refMemory) Load(addr uint64, size int) (uint64, error) {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if err := r.access(a, R, FaultNoRead); err != nil {
			return 0, err
		}
		v |= uint64(r.bytes[a]) << (8 * uint(i))
	}
	return v, nil
}

func (r *refMemory) Store(addr uint64, size int, v uint64) error {
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if err := r.access(a, W, FaultNoWrite); err != nil {
			return err
		}
		r.bytes[a] = byte(v >> (8 * uint(i)))
	}
	return nil
}

// sameFault reports whether two access results agree: both nil, or both
// faults of one kind at one address.
func sameFault(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *Fault
	return errors.As(got, &g) && errors.As(want, &w) && *g == *w
}

// fuzzOps decodes the fuzzer's bytes; a read past the end yields zero.
type fuzzOps struct{ b []byte }

func (o *fuzzOps) next() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

// page picks one of 32 low pages or, with the top bit set, one of the last
// eight pages of the address space, where windows wrap.
func (o *fuzzOps) page() uint64 {
	c := o.next()
	if c&0x80 != 0 {
		return 1<<(64-pageShift) - 1 - uint64(c&7)
	}
	return uint64(c & 31)
}

// addr picks an address on page() at one of a few in-page offsets: the
// first byte, a word that straddles into the next page, the last byte, or
// an arbitrary one.
func (o *fuzzOps) addr() uint64 {
	base := o.page() << pageShift
	switch c := o.next(); c & 3 {
	case 0:
		return base
	case 1:
		return base + PageSize - 4
	case 2:
		return base + PageSize - 1
	default:
		return base + uint64(c)<<4
	}
}

// FuzzMemMap drives a random sequence of Map, Reset, load and store
// operations against Memory and the per-page reference model, and after
// each step requires equal Mapped, CheckExec, Load and Store results —
// values and fault kinds and addresses — at the edges of the last window
// and at the addresses the sequence touched. Windows include sub-page and
// multi-page ones, remaps of materialized pages, zero sizes and windows
// that wrap past the top of the address space.
func FuzzMemMap(f *testing.F) {
	f.Add([]byte{0, 2, 0, 4, 3, 2, 1, 0, 3, 1, 0, 1, 1, 2, 1, 0, 1, 0, 5, 1})
	f.Add([]byte{0, 0x81, 0, 3, 3, 0, 5, 0, 0, 4, 0, 6, 2, 0x87, 1, 0, 1, 4, 3, 0, 7})
	f.Add([]byte{0, 1, 2, 9, 3, 2, 4, 1, 0, 3, 4, 0, 4, 2, 2, 2, 1, 5, 4, 1, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps{data}
		var m Memory // the zero Memory is a usable empty address space
		ref := &refMemory{perms: map[uint64]Perm{}, bytes: map[uint64]byte{}}
		var probes []uint64
		for step := 0; len(ops.b) > 0 && step < 200; step++ {
			switch op := ops.next() % 6; op {
			case 0, 1: // Map
				addr := ops.addr()
				size := uint64(ops.next()%12)<<pageShift + uint64(ops.next()%3)*PageSize/2
				if op == 1 {
					size = uint64(ops.next()) // a sub-page window, maybe empty
				}
				perm := Perm(ops.next() & 7)
				if first, last := addr>>pageShift, (addr+size-1)>>pageShift; last >= first && last-first > 64 {
					continue // Map(0, 0), the whole address space: too wide for the reference's page walk
				}
				m.Map(addr, size, perm)
				ref.Map(addr, size, perm)
				end := addr + size
				probes = append(probes[:0:0], addr-1, addr, end-1, end, (addr&^offMask)-1, (end|offMask)+1)
			case 2: // Store, materializing the page
				a, v := ops.addr(), uint64(ops.next())*0x0101_0101_0101_0101
				size := 1 + int(ops.next()&1)*7
				if got, want := m.Store(a, size, v), ref.Store(a, size, v); !sameFault(got, want) {
					t.Fatalf("step %d: Store(%#x, %d) = %v, want %v", step, a, size, got, want)
				}
				probes = append(probes, a)
			case 3: // Load, materializing the page
				a := ops.addr()
				got, gerr := m.Load(a, 8)
				want, werr := ref.Load(a, 8)
				if got != want || !sameFault(gerr, werr) {
					t.Fatalf("step %d: Load(%#x) = %#x, %v; want %#x, %v", step, a, got, gerr, want, werr)
				}
				probes = append(probes, a)
			case 4:
				m.Reset()
				ref.Reset()
			default: // no-op: probe only
			}
			checkSpans(t, step, m.spans)
			for _, a := range probes {
				if got, want := m.Mapped(a), ref.mapped(a); got != want {
					t.Fatalf("step %d: Mapped(%#x) = %v, want %v", step, a, got, want)
				}
				wantExec := ref.access(a, X, FaultNoExec)
				if got := m.CheckExec(a); !sameFault(got, wantExec) {
					t.Fatalf("step %d: CheckExec(%#x) = %v, want %v", step, a, got, wantExec)
				}
				for _, size := range []int{1, 8} {
					got, gerr := m.Load(a, size)
					want, werr := ref.Load(a, size)
					if got != want || !sameFault(gerr, werr) {
						t.Fatalf("step %d: Load(%#x, %d) = %#x, %v; want %#x, %v", step, a, size, got, gerr, want, werr)
					}
				}
				// Store back what the reference reads (zero where it cannot
				// read), so a probe checks the write permission and leaves
				// both models equal.
				v, _ := ref.Load(a, 1)
				if got, want := m.Store(a, 1, v), ref.Store(a, 1, v); !sameFault(got, want) {
					t.Fatalf("step %d: Store(%#x) = %v, want %v", step, a, got, want)
				}
			}
		}
	})
}

// checkSpans requires the range table to be sorted, disjoint and
// coalesced: no two abutting spans share a permission.
func checkSpans(t *testing.T, step int, spans []span) {
	t.Helper()
	for i, s := range spans {
		if s.first > s.last {
			t.Fatalf("step %d: span %d is empty: %+v", step, i, s)
		}
		if i == 0 {
			continue
		}
		p := spans[i-1]
		if p.last >= s.first || p.last+1 == s.first && p.perm == s.perm {
			t.Fatalf("step %d: spans %d and %d overlap or should merge: %+v %+v", step, i-1, i, p, s)
		}
	}
}
