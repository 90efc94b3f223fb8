// Package mem implements the simulated 64-bit byte-addressable memory of the
// machine: sparse 4 KiB pages with R/W/X permissions. It stands in for the
// hardware MMU the paper relies on (non-writable code pages for the threat
// model of §2, non-executable data pages for DEP, and page-level isolation).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// PageSize is the size of one page in bytes.
const PageSize = 4096

const pageShift = 12
const offMask = PageSize - 1

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	R Perm = 1 << iota
	W
	X
)

// String renders permissions as "rwx" flags.
func (p Perm) String() string {
	b := []byte("---")
	if p&R != 0 {
		b[0] = 'r'
	}
	if p&W != 0 {
		b[1] = 'w'
	}
	if p&X != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies access faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota
	FaultNoRead
	FaultNoWrite
	FaultNoExec
)

var faultNames = [...]string{
	FaultUnmapped: "unmapped address",
	FaultNoRead:   "read of non-readable page",
	FaultNoWrite:  "write of non-writable page",
	FaultNoExec:   "execute of non-executable page",
}

// Fault is a memory access fault ("SIGSEGV").
type Fault struct {
	Addr uint64
	Kind FaultKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s at %#x", faultNames[f.Kind], f.Addr)
}

type page struct {
	perm Perm
	data [PageSize]byte
}

// cacheWays is the size of the page-translation cache (a power of two).
// 64 entries keep the bundled SPEC stand-ins' working pages (rodata,
// globals, heap and both stacks) mostly resident; at 8, conflict misses
// sent about 4% of their steps to the page map.
const cacheWays = 64

// Memory is a sparse paged address space. The zero value is an empty address
// space ready to use.
//
// Permissions live in a range table: a sorted list of disjoint runs of
// consecutive pages, each with one permission, where runs that abut with
// equal permissions are merged. A machine's layout (code, rodata, globals,
// heap and two stacks — about 2,600 pages) is a handful of runs, so loading
// or resetting one costs a few slice writes rather than one map insert per
// page.
//
// Page data is materialized lazily: Map records permissions only, and the
// 4 KiB data block is allocated on first touch, taking its permission from
// the range table. A machine maps ~10 MiB of stacks and segments but
// touches a small fraction of it, so lazy materialization cuts per-machine
// construction from megabytes of zeroed pages to a handful — which is what
// keeps the parallel harness fan-out (hundreds of machines) off the garbage
// collector's back. An untouched page reads as zeroes, exactly as if it had
// been materialized eagerly.
type Memory struct {
	// spans is the authoritative permission table of every mapped page:
	// sorted by page number, disjoint, and coalesced.
	spans []span
	// pages holds the materialized (touched) pages. A materialized page's
	// perm always equals the perm of the span that covers it.
	pages map[uint64]*page

	// cache is a direct-mapped translation cache of cacheWays entries in
	// front of the page map — the simulator's TLB, indexed by the low bits
	// of the page number. Pages are never unmapped during a run and
	// permission changes go through the cached *page itself, so entries
	// never go stale and no invalidation is needed; Reset (the only bulk
	// unmap) flushes it.
	cache [cacheWays]struct {
		pn uint64
		pg *page
	}

	// free recycles page frames across Reset (cleared at harvest time), so
	// a pooled machine's working set materializes without allocation.
	free []*page

	// scratch stages Move's snapshot copy, reused across calls (and across
	// Reset) so the memcpy intrinsic allocates nothing in steady state.
	scratch []byte
}

// span is one entry of the range table: pages first..last (inclusive page
// numbers) mapped with perm.
type span struct {
	first, last uint64
	perm        Perm
}

// pageFreeCap bounds the recycled-page pool: a machine's touched working
// set is a few hundred pages, and retaining more than this (4 MiB of
// backing arrays) would just pin a pathological run's footprint forever.
const pageFreeCap = 1024

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: map[uint64]*page{}}
}

// spanAt returns the index of the first span that ends at or after page pn,
// or len(m.spans) if none does.
func (m *Memory) spanAt(pn uint64) int {
	lo, hi := 0, len(m.spans)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.spans[h].last < pn {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// spanPerm looks page pn up in the range table.
func (m *Memory) spanPerm(pn uint64) (Perm, bool) {
	if i := m.spanAt(pn); i < len(m.spans) && m.spans[i].first <= pn {
		return m.spans[i].perm, true
	}
	return 0, false
}

// page returns the page backing addr, materializing a mapped-but-untouched
// page on first access; nil means unmapped.
func (m *Memory) page(addr uint64) *page {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg != nil && c.pn == pn {
		return c.pg
	}
	pg := m.pages[pn]
	if pg == nil {
		perm, ok := m.spanPerm(pn)
		if !ok {
			return nil
		}
		if n := len(m.free); n > 0 {
			pg = m.free[n-1]
			m.free = m.free[:n-1]
			pg.perm = perm
		} else {
			pg = &page{perm: perm}
		}
		m.pages[pn] = pg
	}
	c.pn, c.pg = pn, pg
	return pg
}

// Map maps [addr, addr+size) with the given permissions, rounding to page
// boundaries; a window whose end wraps past the top of the address space
// maps nothing. Remapping an existing page updates its permissions and
// keeps its contents. The window overwrites its pages in the range table:
// the spans it overlaps are split at its edges, and it merges with the
// spans on either side that carry the same permission. The cost is linear
// in the number of spans and of materialized pages, never in the pages of
// the window.
func (m *Memory) Map(addr, size uint64, perm Perm) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	if last < first {
		return
	}
	if m.pages == nil {
		m.pages = map[uint64]*page{}
	}
	i := m.spanAt(first)
	if i < len(m.spans) && m.spans[i].first <= first && last <= m.spans[i].last && m.spans[i].perm == perm {
		return // already mapped so, as malloc finds most of the heap
	}
	// Spans [i, j) overlap the window or abut it.
	if i > 0 && m.spans[i-1].last+1 == first {
		i--
	}
	j := i
	for j < len(m.spans) && m.spans[j].first <= last+1 {
		j++
	}
	// The replacement: what survives of the first and last of those spans
	// around the window, merged with it where the permissions agree.
	var buf [3]span
	repl := buf[:0]
	if i < j && m.spans[i].first < first {
		repl = append(repl, span{m.spans[i].first, first - 1, m.spans[i].perm})
	}
	repl = append(repl, span{first, last, perm})
	if i < j && m.spans[j-1].last > last {
		repl = append(repl, span{last + 1, m.spans[j-1].last, m.spans[j-1].perm})
	}
	merged := repl[:1]
	for _, s := range repl[1:] {
		if p := &merged[len(merged)-1]; p.perm == s.perm {
			p.last = s.last
		} else {
			merged = append(merged, s)
		}
	}
	m.spans = slices.Replace(m.spans, i, j, merged...)

	// Materialized pages in the window take the new permission: walk the
	// window or the materialized set, whichever is smaller.
	if last-first < uint64(len(m.pages)) {
		for pn := first; pn <= last; pn++ {
			if pg := m.pages[pn]; pg != nil {
				pg.perm = perm
			}
		}
	} else {
		for pn, pg := range m.pages {
			if first <= pn && pn <= last {
				pg.perm = perm
			}
		}
	}
}

// Ranges reports how many spans the permission range table holds.
func (m *Memory) Ranges() int { return len(m.spans) }

// Reset returns the address space to empty — every mapping dropped, every
// page's contents discarded — while recycling the materialized page frames
// (zeroed here, at harvest time), the map buckets and the range table's
// backing array, so a pooled machine's reload repopulates all three without
// allocating. Semantically identical to *m = *New(): an address mapped only
// before Reset faults exactly as it would in a fresh Memory.
func (m *Memory) Reset() {
	for _, pg := range m.pages {
		pg.data = [PageSize]byte{}
		pg.perm = 0
		if len(m.free) < pageFreeCap {
			m.free = append(m.free, pg)
		}
	}
	clear(m.pages)
	m.spans = m.spans[:0]
	clear(m.cache[:])
}

// Mapped reports whether addr is on a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.spanPerm(addr >> pageShift)
	return ok
}

// CheckExec verifies addr lies on an executable page.
func (m *Memory) CheckExec(addr uint64) error {
	_, err := m.Chunk(addr, X)
	return err
}

// denied names the fault of an access to a mapped page that lacks the
// permission it needs.
var denied = [...]FaultKind{R: FaultNoRead, W: FaultNoWrite, X: FaultNoExec}

// Chunk is the one page walk under every access that is not a translation
// cache hit: it returns the bytes from addr to the end of addr's page, or
// the fault at addr when the page is unmapped or lacks need (one of R, W
// or X; 0 asks only that the page be mapped, as the loader's writes do).
// The slice aliases the page, so it is valid until the next Reset and may
// be written only when need is W or 0. A range access walks its window a
// chunk at a time, so its first fault is the one a byte-at-a-time walk
// would meet.
func (m *Memory) Chunk(addr uint64, need Perm) ([]byte, error) {
	pg := m.page(addr)
	if pg == nil {
		return nil, &Fault{Addr: addr, Kind: FaultUnmapped}
	}
	if pg.perm&need != need {
		return nil, &Fault{Addr: addr, Kind: denied[need]}
	}
	return pg.data[addr&offMask:], nil
}

// read fills p from the readable bytes at addr.
func (m *Memory) read(p []byte, addr uint64) error {
	for i := 0; i < len(p); {
		c, err := m.Chunk(addr+uint64(i), R)
		if err != nil {
			return err
		}
		i += copy(p[i:], c)
	}
	return nil
}

// write copies src to addr, a page chunk at a time, into pages that carry
// need.
func (m *Memory) write(addr uint64, src []byte, need Perm) error {
	for i := 0; i < len(src); {
		c, err := m.Chunk(addr+uint64(i), need)
		if err != nil {
			return err
		}
		i += copy(c, src[i:])
	}
	return nil
}

// TryLoadWord reads one readable, in-page 8-byte word at addr through the
// translation cache. ok=false means the caller must take the general Load
// path (cache miss, page-straddling word, fault). It contains no calls, so
// it inlines into the VM's load handlers — the interpreter's hottest
// memory entry point costs a handful of instructions on the hit path.
func (m *Memory) TryLoadWord(addr uint64) (v uint64, ok bool) {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg == nil || c.pn != pn || c.pg.perm&R == 0 || addr&offMask > PageSize-8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(c.pg.data[addr&offMask:]), true
}

// TryStoreWord is the store counterpart of TryLoadWord.
func (m *Memory) TryStoreWord(addr, v uint64) bool {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg == nil || c.pn != pn || c.pg.perm&W == 0 || addr&offMask > PageSize-8 {
		return false
	}
	binary.LittleEndian.PutUint64(c.pg.data[addr&offMask:], v)
	return true
}

// TryLoadByte is the 1-byte counterpart of TryLoadWord: one readable byte
// at addr through the translation cache, ok=false on a miss or a fault.
func (m *Memory) TryLoadByte(addr uint64) (v uint64, ok bool) {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg == nil || c.pn != pn || c.pg.perm&R == 0 {
		return 0, false
	}
	return uint64(c.pg.data[addr&offMask]), true
}

// TryStoreByte is the store counterpart of TryLoadByte: it writes the low
// byte of v.
func (m *Memory) TryStoreByte(addr, v uint64) bool {
	pn := addr >> pageShift
	c := &m.cache[pn&(cacheWays-1)]
	if c.pg == nil || c.pn != pn || c.pg.perm&W == 0 {
		return false
	}
	c.pg.data[addr&offMask] = byte(v)
	return true
}

// LoadWord reads one 8-byte little-endian word at addr: the TryLoadWord
// fast path with the general fallback.
func (m *Memory) LoadWord(addr uint64) (uint64, error) {
	if addr&offMask <= PageSize-8 {
		pn := addr >> pageShift
		c := &m.cache[pn&(cacheWays-1)]
		if pg := c.pg; pg != nil && c.pn == pn && pg.perm&R != 0 {
			return binary.LittleEndian.Uint64(pg.data[addr&offMask:]), nil
		}
	}
	return m.Load(addr, 8)
}

// StoreWord writes one 8-byte little-endian word at addr; the inlinable
// counterpart of LoadWord.
func (m *Memory) StoreWord(addr, v uint64) error {
	if addr&offMask <= PageSize-8 {
		pn := addr >> pageShift
		c := &m.cache[pn&(cacheWays-1)]
		if pg := c.pg; pg != nil && c.pn == pn && pg.perm&W != 0 {
			binary.LittleEndian.PutUint64(pg.data[addr&offMask:], v)
			return nil
		}
	}
	return m.Store(addr, 8, v)
}

// Load reads size bytes (1 or 8, little-endian) at addr.
func (m *Memory) Load(addr uint64, size int) (uint64, error) {
	c, err := m.Chunk(addr, R)
	if err != nil {
		return 0, err
	}
	switch {
	case size == 1:
		return uint64(c[0]), nil
	case size == 8 && len(c) >= 8:
		return binary.LittleEndian.Uint64(c), nil
	}
	// A word that straddles into the next page.
	var w [8]byte
	if err := m.read(w[:size], addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// Store writes size bytes (1 or 8, little-endian) at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) error {
	return m.store(addr, size, v, W)
}

// ForceStore is Store ignoring page write permissions (loader use only).
func (m *Memory) ForceStore(addr uint64, size int, v uint64) error {
	return m.store(addr, size, v, 0)
}

// store writes size bytes of v at addr into pages that carry need.
func (m *Memory) store(addr uint64, size int, v uint64, need Perm) error {
	c, err := m.Chunk(addr, need)
	if err != nil {
		return err
	}
	switch {
	case size == 1:
		c[0] = byte(v)
		return nil
	case size == 8 && len(c) >= 8:
		binary.LittleEndian.PutUint64(c, v)
		return nil
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return m.write(addr, w[:size], need)
}

// ReadBytes copies n bytes starting at addr into a new slice, a page chunk
// at a time; the slice grows only over bytes already found readable.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, 0, min(max(n, 0), PageSize))
	for len(out) < n {
		c, err := m.Chunk(addr+uint64(len(out)), R)
		if err != nil {
			return nil, err
		}
		out = append(out, c[:min(len(c), n-len(out))]...)
	}
	return out, nil
}

// Move copies n bytes from src to dst with snapshot (memmove) semantics:
// the source range is read in full before any destination byte is written,
// so overlapping ranges behave as if staged through a temporary buffer —
// because they are, through an internal scratch buffer reused across calls.
// Faults are detected on the read side before the destination is touched,
// and the scratch grows only over source bytes already found readable, so a
// hostile n costs no more host memory than the mapped pages it reaches.
func (m *Memory) Move(dst, src uint64, n int) error {
	buf := m.scratch[:0]
	for len(buf) < n {
		c, err := m.Chunk(src+uint64(len(buf)), R)
		if err != nil {
			return err
		}
		buf = append(buf, c[:min(len(c), n-len(buf))]...)
	}
	m.scratch = buf
	return m.WriteBytes(dst, buf)
}

// WriteBytes writes b starting at addr, a page chunk at a time.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	return m.write(addr, b, W)
}

// Fill writes n copies of c starting at addr, filling each page's backing
// array in place, so a large fill allocates nothing.
func (m *Memory) Fill(addr uint64, c byte, n int64) error {
	for i := int64(0); i < n; {
		d, err := m.Chunk(addr+uint64(i), W)
		if err != nil {
			return err
		}
		d = d[:min(int64(len(d)), n-i)]
		if c == 0 {
			clear(d)
		} else {
			for j := range d {
				d[j] = c
			}
		}
		i += int64(len(d))
	}
	return nil
}

// ForceWriteString writes the bytes of s ignoring page write permissions:
// the loader populates read-only segments with it, never program
// execution. A string source avoids a []byte conversion allocation — the
// loader writes every string literal on each machine load/reset.
func (m *Memory) ForceWriteString(addr uint64, s string) error {
	for i := 0; i < len(s); {
		c, err := m.Chunk(addr+uint64(i), 0)
		if err != nil {
			return err
		}
		i += copy(c, s[i:])
	}
	return nil
}

// AppendCString appends the NUL-terminated string at addr (bounded at max
// bytes, the NUL excluded) to dst, a page chunk at a time.
func (m *Memory) AppendCString(dst []byte, addr uint64, max int) ([]byte, error) {
	for i := 0; i < max; {
		c, err := m.Chunk(addr+uint64(i), R)
		if err != nil {
			return dst, err
		}
		c = c[:min(len(c), max-i)]
		if n := bytes.IndexByte(c, 0); n >= 0 {
			return append(dst, c[:n]...), nil
		}
		dst = append(dst, c...)
		i += len(c)
	}
	return dst, nil
}
