package sps

import "sort"

// pageWords is the number of pointer-sized slots covered by one shadow page
// of the array organisation (4 KiB of address space, one entry per 8 bytes).
const pageWords = 512

// Array is the "simple array" organisation: a direct-mapped shadow of the
// address space relying on sparse mappings. Each touched 4 KiB of regular
// address space reserves a full shadow block (512 entries x 32 bytes =
// 16 KiB), which is why the paper reports 105% memory overhead for CPI with
// this organisation while it remains the fastest (§4: superpages made the
// simple table the fastest of the three).
type Array struct {
	blocks map[uint64]*[pageWords]Entry
	live   int
	// freeBlks recycles shadow blocks unreserved by DropPages or Reset
	// (zeroed at harvest), so steady-state reserve/drop cycles — a pooled
	// machine's malloc/free traffic — allocate no new 16 KiB blocks.
	freeBlks []*[pageWords]Entry
}

// arrayFreeCap bounds the recycled-block pool (64 × 16 KiB = 1 MiB).
const arrayFreeCap = 64

// newBlk pops a recycled shadow block or allocates a fresh one.
func (a *Array) newBlk() *[pageWords]Entry {
	if n := len(a.freeBlks); n > 0 {
		blk := a.freeBlks[n-1]
		a.freeBlks = a.freeBlks[:n-1]
		return blk
	}
	return new([pageWords]Entry)
}

// retireBlk zeroes an unreserved block and keeps it for reuse.
func (a *Array) retireBlk(blk *[pageWords]Entry) {
	if len(a.freeBlks) < arrayFreeCap {
		*blk = [pageWords]Entry{}
		a.freeBlks = append(a.freeBlks, blk)
	}
}

// NewArray returns an empty array-organised store.
func NewArray() *Array { return &Array{blocks: map[uint64]*[pageWords]Entry{}} }

func (a *Array) slot(addr uint64, alloc bool) *Entry {
	pn := addr >> 12
	blk := a.blocks[pn]
	if blk == nil {
		if !alloc {
			return nil
		}
		blk = a.newBlk()
		a.blocks[pn] = blk
	}
	return &blk[(addr>>3)&(pageWords-1)]
}

// Set implements Store. The zero Entry clears the slot without reserving a
// shadow block.
func (a *Array) Set(addr uint64, e Entry) {
	if e == (Entry{}) {
		a.Delete(addr)
		return
	}
	s := a.slot(addr, true)
	if *s == (Entry{}) {
		a.live++
	}
	*s = e
}

// Get implements Store.
func (a *Array) Get(addr uint64) (Entry, bool) {
	s := a.slot(addr, false)
	if s == nil || *s == (Entry{}) {
		return Entry{}, false
	}
	return *s, true
}

// Delete implements Store.
func (a *Array) Delete(addr uint64) {
	if s := a.slot(addr, false); s != nil && *s != (Entry{}) {
		*s = Entry{}
		a.live--
	}
}

// Len implements Store.
func (a *Array) Len() int { return a.live }

// FootprintBytes implements Store: whole shadow blocks are resident.
func (a *Array) FootprintBytes() int64 {
	return int64(len(a.blocks)) * pageWords * EntryBytes
}

// Reset implements Store, retiring reserved blocks into the recycle pool
// and keeping the map's buckets, so a pooled machine's next run reserves
// its shadow pages without allocating.
func (a *Array) Reset() {
	for _, blk := range a.blocks {
		a.retireBlk(blk)
	}
	clear(a.blocks)
	a.live = 0
}

// CopyRange implements Store with direct slot access: the word loop walks
// source and destination blocks with per-page pointer caching instead of
// going through the generic map lookups, in the overlap-safe direction
// (see copyRangeGeneric for the direction argument).
func (a *Array) CopyRange(dst, src uint64, words int) {
	if words <= 0 || dst>>3 == src>>3 {
		return
	}
	i, step := 0, 1
	if dst>>3 > src>>3 {
		i, step = words-1, -1
	}
	var (
		sPN, dPN = ^uint64(0), ^uint64(0)
		sBlk     *[pageWords]Entry
		dBlk     *[pageWords]Entry
	)
	for k := 0; k < words; k, i = k+1, i+step {
		so := src + uint64(i)*8
		do := dst + uint64(i)*8
		if pn := so >> 12; pn != sPN {
			sPN, sBlk = pn, a.blocks[pn]
		}
		var e Entry
		if sBlk != nil {
			e = sBlk[(so>>3)&(pageWords-1)]
		}
		if pn := do >> 12; pn != dPN {
			dPN, dBlk = pn, a.blocks[pn]
		}
		if e == (Entry{}) {
			if dBlk != nil {
				if s := &dBlk[(do>>3)&(pageWords-1)]; *s != (Entry{}) {
					*s = Entry{}
					a.live--
				}
			}
			continue
		}
		if dBlk == nil {
			dBlk = a.newBlk()
			a.blocks[dPN] = dBlk
		}
		s := &dBlk[(do>>3)&(pageWords-1)]
		if *s == (Entry{}) {
			a.live++
		}
		*s = e
	}
}

// DeleteRange implements Store, skipping whole unreserved shadow pages.
func (a *Array) DeleteRange(base uint64, words int) {
	var (
		pn  = ^uint64(0)
		blk *[pageWords]Entry
	)
	for i := 0; i < words; i++ {
		addr := base + uint64(i)*8
		if p := addr >> 12; p != pn {
			pn, blk = p, a.blocks[p]
		}
		if blk == nil {
			continue
		}
		if s := &blk[(addr>>3)&(pageWords-1)]; *s != (Entry{}) {
			*s = Entry{}
			a.live--
		}
	}
}

// DropPages implements Store. Shadow pages fully inside the window are
// unreserved outright — the block leaves the map, which both clears its
// slots and returns its 16 KiB to the sparse mapping — and only the (at
// most two) partially covered edge pages fall back to per-slot deletes.
// The returned unit count is the number of *resident* shadow pages the
// window intersected; unreserved pages cost nothing, which is the whole
// point of page-granular free()-time invalidation.
func (a *Array) DropPages(base uint64, words int) int {
	if words <= 0 {
		return 0
	}
	// Covered slots are contiguous regardless of base alignment:
	// (base+8i)>>3 = (base>>3)+i.
	sLo := base >> 3
	sHi := sLo + uint64(words) // exclusive
	units := 0
	for pn := sLo >> 9; pn <= (sHi-1)>>9; pn++ {
		blk := a.blocks[pn]
		if blk == nil {
			continue
		}
		units++
		if sLo <= pn<<9 && (pn+1)<<9 <= sHi {
			for i := range blk {
				if blk[i] != (Entry{}) {
					a.live--
				}
			}
			delete(a.blocks, pn)
			a.retireBlk(blk)
			continue
		}
		lo, hi := sLo, sHi
		if lo < pn<<9 {
			lo = pn << 9
		}
		if hi > (pn+1)<<9 {
			hi = (pn + 1) << 9
		}
		for s := lo; s < hi; s++ {
			if e := &blk[s&(pageWords-1)]; *e != (Entry{}) {
				*e = Entry{}
				a.live--
			}
		}
	}
	return units
}

// TwoLevel is the two-level lookup table organisation (directory of
// second-level tables, like the MPX layout the paper plans to adopt, §4).
// Each second-level table carries a cached sorted index of its keys,
// invalidated when its key set changes, so repeated DropPages calls over a
// stable table do no per-call sorting.
type TwoLevel struct {
	dir  map[uint64]*l2tbl
	live int
}

// l2tbl is one second-level table plus its cached sorted key index.
type l2tbl struct {
	m map[uint64]Entry
	// keys is the ascending key cache; nil means invalidated (the key set
	// changed since it was built).
	keys []uint64
}

func (t *l2tbl) sortedKeys() []uint64 {
	t.keys = cachedSortedKeys(t.keys, t.m)
	return t.keys
}

// copyRangeGeneric implements CopyRange on top of a store's own
// Get/Set/Delete. Overlap safety comes from direction-aware iteration: the
// word slots are slot(dst)+i and slot(src)+i, so iterating downward when
// slot(dst) > slot(src) (and upward otherwise) reads every source slot
// before any copy can overwrite it — equivalent to a full snapshot.
func copyRangeGeneric(s Store, dst, src uint64, words int) {
	if words <= 0 || dst>>3 == src>>3 {
		return
	}
	i, step := 0, 1
	if dst>>3 > src>>3 {
		i, step = words-1, -1
	}
	for k := 0; k < words; k, i = k+1, i+step {
		off := uint64(i) * 8
		if e, ok := s.Get(src + off); ok {
			s.Set(dst+off, e)
		} else {
			s.Delete(dst + off)
		}
	}
}

// deleteRangeGeneric implements DeleteRange via per-word Delete.
func deleteRangeGeneric(s Store, base uint64, words int) {
	for i := 0; i < words; i++ {
		s.Delete(base + uint64(i)*8)
	}
}

// searchU64 returns the first index in sorted with sorted[i] >= v.
func searchU64(sorted []uint64, v uint64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
}

// cachedSortedKeys returns cache when still valid (non-nil) and otherwise
// rebuilds the ascending key index of m. Callers nil their cache whenever
// the key set changes (inserting a new key or deleting a live one —
// overwriting an existing key keeps the cache valid).
func cachedSortedKeys[V any](cache []uint64, m map[uint64]V) []uint64 {
	if cache != nil {
		return cache
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// NewTwoLevel returns an empty two-level store.
func NewTwoLevel() *TwoLevel { return &TwoLevel{dir: map[uint64]*l2tbl{}} }

const l2Bits = 15 // second-level covers 32K slots (256 KiB of address space)

// Set implements Store. The zero Entry clears the slot (the canonical
// semantics: the array organisation cannot represent it any other way).
func (t *TwoLevel) Set(addr uint64, e Entry) {
	if e == (Entry{}) {
		t.Delete(addr)
		return
	}
	hi, lo := (addr>>3)>>l2Bits, (addr>>3)&((1<<l2Bits)-1)
	tbl := t.dir[hi]
	if tbl == nil {
		tbl = &l2tbl{m: map[uint64]Entry{}}
		t.dir[hi] = tbl
	}
	if _, ok := tbl.m[lo]; !ok {
		t.live++
		tbl.keys = nil // key set changed
	}
	tbl.m[lo] = e
}

// Get implements Store.
func (t *TwoLevel) Get(addr uint64) (Entry, bool) {
	hi, lo := (addr>>3)>>l2Bits, (addr>>3)&((1<<l2Bits)-1)
	tbl := t.dir[hi]
	if tbl == nil {
		return Entry{}, false
	}
	e, ok := tbl.m[lo]
	return e, ok
}

// Delete implements Store.
func (t *TwoLevel) Delete(addr uint64) {
	hi, lo := (addr>>3)>>l2Bits, (addr>>3)&((1<<l2Bits)-1)
	if tbl := t.dir[hi]; tbl != nil {
		if _, ok := tbl.m[lo]; ok {
			delete(tbl.m, lo)
			t.live--
			tbl.keys = nil // key set changed
		}
	}
}

// Len implements Store.
func (t *TwoLevel) Len() int { return t.live }

// FootprintBytes implements Store: directory entries plus per-entry slots
// (second-level tables are allocated sparsely at entry granularity in this
// model, so footprint tracks live entries plus directory overhead).
func (t *TwoLevel) FootprintBytes() int64 {
	return int64(len(t.dir))*4096 + int64(t.live)*EntryBytes
}

// Reset implements Store. The directory map keeps its buckets; the
// second-level tables are dropped whole (their maps shrink to nothing
// useful once cleared, and the directory rebuild re-creates few of them).
func (t *TwoLevel) Reset() {
	clear(t.dir)
	t.live = 0
}

// CopyRange implements Store (generic overlap-safe word copy).
func (t *TwoLevel) CopyRange(dst, src uint64, words int) {
	copyRangeGeneric(t, dst, src, words)
}

// DeleteRange implements Store.
func (t *TwoLevel) DeleteRange(base uint64, words int) {
	deleteRangeGeneric(t, base, words)
}

// DropPages implements Store: second-level tables fully inside the window
// are dropped from the directory whole; partially covered edge tables are
// cleared through their sorted key cache. Units are resident second-level
// tables intersected.
func (t *TwoLevel) DropPages(base uint64, words int) int {
	if words <= 0 {
		return 0
	}
	sLo := base >> 3
	sHi := sLo + uint64(words) // exclusive
	units := 0
	for hi := sLo >> l2Bits; hi <= (sHi-1)>>l2Bits; hi++ {
		tbl := t.dir[hi]
		if tbl == nil {
			continue
		}
		units++
		if sLo <= hi<<l2Bits && (hi+1)<<l2Bits <= sHi {
			t.live -= len(tbl.m)
			delete(t.dir, hi)
			continue
		}
		loKey, hiKey := uint64(0), uint64(1)<<l2Bits
		if sLo > hi<<l2Bits {
			loKey = sLo - hi<<l2Bits
		}
		if sHi < (hi+1)<<l2Bits {
			hiKey = sHi - hi<<l2Bits
		}
		keys := tbl.sortedKeys()
		deleted := false
		for i := searchU64(keys, loKey); i < len(keys) && keys[i] < hiKey; i++ {
			delete(tbl.m, keys[i])
			t.live--
			deleted = true
		}
		if deleted {
			tbl.keys = nil // key set changed
		}
	}
	return units
}

// Hash is the hash-table organisation: most compact, slowest (probing plus
// worse locality, §4/§5.2: 13.9% CPI memory overhead vs 105% for the array).
// A cached sorted key index, invalidated whenever the key set changes,
// keeps DropPages from collecting and sorting the full key set per call.
type Hash struct {
	m map[uint64]Entry
	// keys is the ascending slot cache; nil means invalidated.
	keys []uint64
}

// NewHash returns an empty hash-organised store.
func NewHash() *Hash { return &Hash{m: map[uint64]Entry{}} }

// Set implements Store. The zero Entry clears the slot (the canonical
// semantics; see Store).
func (h *Hash) Set(addr uint64, e Entry) {
	if e == (Entry{}) {
		h.Delete(addr)
		return
	}
	s := addr >> 3
	if _, ok := h.m[s]; !ok {
		h.keys = nil // key set changed
	}
	h.m[s] = e
}

// Get implements Store.
func (h *Hash) Get(addr uint64) (Entry, bool) {
	e, ok := h.m[addr>>3]
	return e, ok
}

// Delete implements Store.
func (h *Hash) Delete(addr uint64) {
	s := addr >> 3
	if _, ok := h.m[s]; ok {
		delete(h.m, s)
		h.keys = nil // key set changed
	}
}

// Len implements Store.
func (h *Hash) Len() int { return len(h.m) }

// FootprintBytes implements Store: entries plus hashing overhead (key word
// and ~1.5x table slack).
func (h *Hash) FootprintBytes() int64 {
	return int64(len(h.m)) * (EntryBytes + 8) * 3 / 2
}

// Reset implements Store, keeping the table's buckets for reuse.
func (h *Hash) Reset() { clear(h.m); h.keys = nil }

// CopyRange implements Store (generic overlap-safe word copy).
func (h *Hash) CopyRange(dst, src uint64, words int) {
	copyRangeGeneric(h, dst, src, words)
}

// DeleteRange implements Store.
func (h *Hash) DeleteRange(base uint64, words int) {
	deleteRangeGeneric(h, base, words)
}

// DropPages implements Store: a hash table has no page structure to
// release, so this is a ranged delete over the sorted key cache. Units are
// the removed entries — the per-entry probes the organisation actually
// pays, still far below a per-word charge over a sparsely occupied window.
func (h *Hash) DropPages(base uint64, words int) int {
	if words <= 0 {
		return 0
	}
	sLo := base >> 3
	sHi := sLo + uint64(words) // exclusive
	h.keys = cachedSortedKeys(h.keys, h.m)
	keys := h.keys
	units := 0
	for i := searchU64(keys, sLo); i < len(keys) && keys[i] < sHi; i++ {
		delete(h.m, keys[i])
		units++
	}
	if units > 0 {
		h.keys = nil // key set changed
	}
	return units
}
