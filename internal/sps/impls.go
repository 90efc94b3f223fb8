package sps

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
type TwoLevel struct {
	dir  map[uint64]map[uint64]Entry
	live int
}

// NewTwoLevel returns an empty two-level store.
func NewTwoLevel() *TwoLevel { return &TwoLevel{dir: map[uint64]map[uint64]Entry{}} }

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
		tbl = map[uint64]Entry{}
		t.dir[hi] = tbl
	}
	if _, ok := tbl[lo]; !ok {
		t.live++
	}
	tbl[lo] = e
}

// Get implements Store.
func (t *TwoLevel) Get(addr uint64) (Entry, bool) {
	hi, lo := (addr>>3)>>l2Bits, (addr>>3)&((1<<l2Bits)-1)
	e, ok := t.dir[hi][lo]
	return e, ok
}

// Delete implements Store.
func (t *TwoLevel) Delete(addr uint64) {
	hi, lo := (addr>>3)>>l2Bits, (addr>>3)&((1<<l2Bits)-1)
	if tbl := t.dir[hi]; tbl != nil {
		if _, ok := tbl[lo]; ok {
			delete(tbl, lo)
			t.live--
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

// DropPages implements Store: second-level tables fully inside the window
// are dropped from the directory whole; a partially covered edge table
// loses the keys inside the window. Units are resident second-level tables
// intersected.
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
			t.live -= len(tbl)
			delete(t.dir, hi)
			continue
		}
		for lo := range tbl {
			if s := hi<<l2Bits | lo; sLo <= s && s < sHi {
				delete(tbl, lo)
				t.live--
			}
		}
	}
	return units
}

// Hash is the hash-table organisation: most compact, slowest (probing plus
// worse locality, §4/§5.2: 13.9% CPI memory overhead vs 105% for the array).
type Hash struct {
	m map[uint64]Entry
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
	h.m[addr>>3] = e
}

// Get implements Store.
func (h *Hash) Get(addr uint64) (Entry, bool) {
	e, ok := h.m[addr>>3]
	return e, ok
}

// Delete implements Store.
func (h *Hash) Delete(addr uint64) { delete(h.m, addr>>3) }

// Len implements Store.
func (h *Hash) Len() int { return len(h.m) }

// FootprintBytes implements Store: entries plus hashing overhead (key word
// and ~1.5x table slack).
func (h *Hash) FootprintBytes() int64 {
	return int64(len(h.m)) * (EntryBytes + 8) * 3 / 2
}

// Reset implements Store, keeping the table's buckets for reuse.
func (h *Hash) Reset() { clear(h.m) }

// DropPages implements Store: a hash table has no page structure to
// release, so this is a ranged delete over the table's keys. Units are the
// removed entries — the per-entry probes the organisation actually pays,
// still far below a per-word charge over a sparsely occupied window.
func (h *Hash) DropPages(base uint64, words int) int {
	if words <= 0 {
		return 0
	}
	sLo := base >> 3
	sHi := sLo + uint64(words) // exclusive
	units := 0
	for s := range h.m {
		if sLo <= s && s < sHi {
			delete(h.m, s)
			units++
		}
	}
	return units
}
