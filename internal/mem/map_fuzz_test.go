package mem

import (
	"bytes"
	"errors"
	"testing"
)

// refMemory is the reference model for FuzzMemMap: one permission entry
// per mapped page and one entry per written byte, with loads, stores and
// range accesses walked a byte at a time. Its Map is the per-page loop the
// range table replaced.
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

// access checks one byte against need, the permission the access requires
// (0: mapped is enough).
func (r *refMemory) access(a uint64, need Perm, kind FaultKind) error {
	perm, ok := r.perms[a>>pageShift]
	if !ok {
		return &Fault{Addr: a, Kind: FaultUnmapped}
	}
	if perm&need != need {
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

func (r *refMemory) ReadBytes(addr uint64, n int) ([]byte, error) {
	var out []byte
	for i := 0; i < n; i++ {
		a := addr + uint64(i)
		if err := r.access(a, R, FaultNoRead); err != nil {
			return nil, err
		}
		out = append(out, r.bytes[a])
	}
	return out, nil
}

// write stores b at addr into pages that carry need, byte by byte.
func (r *refMemory) write(addr uint64, b []byte, need Perm) error {
	for i, c := range b {
		a := addr + uint64(i)
		if err := r.access(a, need, FaultNoWrite); err != nil {
			return err
		}
		r.bytes[a] = c
	}
	return nil
}

func (r *refMemory) Move(dst, src uint64, n int) error {
	b, err := r.ReadBytes(src, n)
	if err != nil {
		return err
	}
	return r.write(dst, b, W)
}

func (r *refMemory) AppendCString(dst []byte, addr uint64, max int) ([]byte, error) {
	for i := 0; i < max; i++ {
		a := addr + uint64(i)
		if err := r.access(a, R, FaultNoRead); err != nil {
			return dst, err
		}
		if r.bytes[a] == 0 {
			break
		}
		dst = append(dst, r.bytes[a])
	}
	return dst, nil
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

// window picks the length of a range access: up to four pages and a bit,
// so windows straddle pages and cross unmapped or read-only middles; zero
// comes up too.
func (o *fuzzOps) window() int {
	return int(o.next()&3)<<pageShift | int(o.next())
}

// FuzzMemMap drives a random sequence of Map, Reset, load, store and range
// operations (ReadBytes, WriteBytes, Move, Fill, AppendCString and
// ForceWriteString) against Memory and the per-page reference model. Each
// range operation must return the reference's bytes and fault (kind and
// address), and after each step Mapped, CheckExec, Load and Store must
// agree at the edges of the last window and at the addresses the sequence
// touched. Windows include sub-page and multi-page ones, remaps of
// materialized pages, zero sizes and windows that wrap past the top of the
// address space.
func FuzzMemMap(f *testing.F) {
	f.Add([]byte{0, 2, 0, 4, 3, 2, 1, 0, 3, 1, 0, 1, 1, 2, 1, 0, 1, 0, 5, 1})
	f.Add([]byte{0, 0x81, 0, 3, 3, 0, 5, 0, 0, 4, 0, 6, 2, 0x87, 1, 0, 1, 4, 3, 0, 7})
	f.Add([]byte{0, 1, 2, 9, 3, 2, 4, 1, 0, 3, 4, 0, 4, 2, 2, 2, 1, 5, 4, 1, 0, 5, 1})
	// Pages 1-4 read-write with page 2 read-only, then range operations
	// across its edges and into the unmapped page 0.
	f.Add([]byte{0, 1, 0, 4, 0, 3, 0, 2, 0, 1, 0, 1,
		5, 1, 1, 2, 0x10, 2, 9, 5, 1, 0, 3, 0, 0, 1, 5, 0, 0, 1, 0, 0, 0,
		5, 1, 2, 0, 0, 1, 3, 5, 3, 0, 1, 0, 5, 3, 5, 1, 0, 2, 0, 4, 0,
		5, 2, 0, 0, 5, 3, 0x41, 5, 1, 3, 1, 0, 1, 0x20})
	// Pages 1-4 read-write: a patterned write, a fill of a non-zero byte
	// that ends mid-page, and an odd-length move of the pattern.
	f.Add([]byte{0, 1, 0, 4, 0, 3, 5, 1, 0, 1, 0x20, 2, 9,
		5, 3, 0, 0, 0x41, 4, 0x5a, 5, 2, 0, 0, 0x33, 5, 0x20, 1, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps{data}
		var m Memory // the zero Memory is a usable empty address space
		ref := &refMemory{perms: map[uint64]Perm{}, bytes: map[uint64]byte{}}
		var probes []uint64
		for step := 0; len(ops.b) > 0 && step < 200; step++ {
			switch op := ops.next() % 7; op {
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
			case 5: // a range operation over a window
				addr, n := ops.addr(), ops.window()
				checkRange(t, step, &m, ref, &ops, addr, n)
				probes = append(probes, addr, addr+uint64(n)-1, addr+uint64(n))
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

// checkRange runs one range operation, chosen by the next fuzz byte, over
// [addr, addr+n) on both models and requires equal results. After a write
// it also requires the window to read back equal.
func checkRange(t *testing.T, step int, m *Memory, ref *refMemory, ops *fuzzOps, addr uint64, n int) {
	t.Helper()
	sel, seed := ops.next(), ops.next()
	src := make([]byte, n)
	for i := range src {
		src[i] = seed + byte(i)*7 // a zero every 256 bytes ends C strings
	}
	var name string
	var got, want error
	switch sel % 6 {
	case 0:
		name = "ReadBytes"
		g, gerr := m.ReadBytes(addr, n)
		w, werr := ref.ReadBytes(addr, n)
		if !bytes.Equal(g, w) {
			t.Fatalf("step %d: ReadBytes(%#x, %d) read %x, want %x", step, addr, n, g, w)
		}
		got, want = gerr, werr
	case 1:
		name = "AppendCString"
		g, gerr := m.AppendCString([]byte("> "), addr, n)
		w, werr := ref.AppendCString([]byte("> "), addr, n)
		if !bytes.Equal(g, w) {
			t.Fatalf("step %d: AppendCString(%#x, %d) = %q, want %q", step, addr, n, g, w)
		}
		got, want = gerr, werr
	case 2:
		name = "WriteBytes"
		got, want = m.WriteBytes(addr, src), ref.write(addr, src, W)
	case 3:
		name = "ForceWriteString"
		got, want = m.ForceWriteString(addr, string(src)), ref.write(addr, src, 0)
	case 4:
		name = "Fill"
		for i := range src {
			src[i] = seed
		}
		got, want = m.Fill(addr, seed, int64(n)), ref.write(addr, src, W)
	default:
		// Move to another window start, or to one that overlaps the source
		// within a page either way.
		name = "Move"
		from := ops.addr()
		if seed&1 != 0 {
			from = addr + uint64(int8(seed))
		}
		got, want = m.Move(addr, from, n), ref.Move(addr, from, n)
	}
	if !sameFault(got, want) {
		t.Fatalf("step %d: %s(%#x, %d) = %v, want %v", step, name, addr, n, got, want)
	}
	g, gerr := m.ReadBytes(addr, n)
	w, werr := ref.ReadBytes(addr, n)
	if !bytes.Equal(g, w) || !sameFault(gerr, werr) {
		t.Fatalf("step %d: after %s, window %#x+%d reads %x, %v; want %x, %v", step, name, addr, n, g, gerr, w, werr)
	}
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
