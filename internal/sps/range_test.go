package sps

import "testing"

// Edge-case tests for the range operations (CopyRange, DeleteRange,
// DropPages) across all three store organisations: empty windows and
// ranges straddling the organisations' internal
// boundaries (the array's 4 KiB shadow pages, the two-level store's
// second-level tables covering 1<<l2Bits slots). The randomized equivalence
// suite (equiv_test.go) covers the bulk behaviour; these pin the exact
// boundary arithmetic the free()-time bulk invalidation depends on.

func entry(v uint64) Entry {
	return Entry{Value: v, Lower: v, Upper: v + 8, Kind: KindData}
}

// twoLevelBoundary is the byte address where a new second-level table starts
// (and, being 4 KiB-aligned, also an array shadow-page boundary).
const twoLevelBoundary = uint64(1<<l2Bits) * 8

func TestDeleteRangeStraddlesBoundaries(t *testing.T) {
	for _, s := range allStores() {
		// Entries on both sides of the two-level (and shadow-page) boundary,
		// plus sentinels just outside the deleted window.
		s.Set(twoLevelBoundary-16, entry(1))
		s.Set(twoLevelBoundary-8, entry(2))
		s.Set(twoLevelBoundary, entry(3))
		s.Set(twoLevelBoundary+8, entry(4))

		DeleteRange(s, twoLevelBoundary-8, 2) // deletes -8 and +0
		if s.Len() != 2 {
			t.Fatalf("%s: Len=%d after straddling DeleteRange, want 2", s.name, s.Len())
		}
		if _, ok := s.Get(twoLevelBoundary - 16); !ok {
			t.Errorf("%s: sentinel below window deleted", s.name)
		}
		if _, ok := s.Get(twoLevelBoundary + 8); !ok {
			t.Errorf("%s: sentinel above window deleted", s.name)
		}
		if _, ok := s.Get(twoLevelBoundary - 8); ok {
			t.Errorf("%s: slot below boundary survived", s.name)
		}
		if _, ok := s.Get(twoLevelBoundary); ok {
			t.Errorf("%s: slot at boundary survived", s.name)
		}

		// Zero-length and negative-length deletes are no-ops.
		DeleteRange(s, twoLevelBoundary-16, 0)
		DeleteRange(s, twoLevelBoundary-16, -1)
		if s.Len() != 2 {
			t.Errorf("%s: empty DeleteRange changed Len to %d", s.name, s.Len())
		}
	}
}

func TestDropPagesStraddlesBoundaries(t *testing.T) {
	for _, s := range allStores() {
		// Entries on both sides of the two-level (and shadow-page) boundary,
		// plus sentinels just outside the dropped window: observably,
		// DropPages must behave exactly like DeleteRange.
		s.Set(twoLevelBoundary-16, entry(1))
		s.Set(twoLevelBoundary-8, entry(2))
		s.Set(twoLevelBoundary, entry(3))
		s.Set(twoLevelBoundary+8, entry(4))

		units := s.DropPages(twoLevelBoundary-8, 2) // drops -8 and +0
		if units <= 0 {
			t.Errorf("%s: straddling DropPages touched %d units, want > 0", s.name, units)
		}
		if s.Len() != 2 {
			t.Fatalf("%s: Len=%d after straddling DropPages, want 2", s.name, s.Len())
		}
		if _, ok := s.Get(twoLevelBoundary - 16); !ok {
			t.Errorf("%s: sentinel below window dropped", s.name)
		}
		if _, ok := s.Get(twoLevelBoundary + 8); !ok {
			t.Errorf("%s: sentinel above window dropped", s.name)
		}
		if _, ok := s.Get(twoLevelBoundary - 8); ok {
			t.Errorf("%s: slot below boundary survived", s.name)
		}
		if _, ok := s.Get(twoLevelBoundary); ok {
			t.Errorf("%s: slot at boundary survived", s.name)
		}

		// Zero-length and negative-length drops are no-ops with zero units.
		if u := s.DropPages(twoLevelBoundary-16, 0); u != 0 {
			t.Errorf("%s: zero-length DropPages reported %d units", s.name, u)
		}
		if u := s.DropPages(twoLevelBoundary-16, -1); u != 0 {
			t.Errorf("%s: negative-length DropPages reported %d units", s.name, u)
		}
		if s.Len() != 2 {
			t.Errorf("%s: empty DropPages changed Len to %d", s.name, s.Len())
		}
		// A window over never-touched address space costs zero units.
		if u := s.DropPages(0x7000_0000, 4*pageWords); u != 0 {
			t.Errorf("%s: DropPages over virgin space reported %d units", s.name, u)
		}
	}
}

// TestDropPagesUnreservesArrayBlocks pins the array organisation's whole-
// page release: a fully covered resident shadow block leaves the footprint,
// while DeleteRange (per-slot) keeps the emptied block resident.
func TestDropPagesUnreservesArrayBlocks(t *testing.T) {
	drop, del := NewArray(), NewArray()
	for _, a := range []*Array{drop, del} {
		for i := uint64(0); i < 4; i++ {
			a.Set(0x2000+i*8, entry(i+1)) // one shadow page at pn 2
		}
	}
	DeleteRange(del, 0x2000, pageWords)
	if fp := del.FootprintBytes(); fp != pageWords*EntryBytes {
		t.Errorf("DeleteRange footprint %d, want the emptied block still resident (%d)",
			fp, pageWords*EntryBytes)
	}
	if units := drop.DropPages(0x2000, pageWords); units != 1 {
		t.Errorf("DropPages over one resident page reported %d units, want 1", units)
	}
	if fp := drop.FootprintBytes(); fp != 0 {
		t.Errorf("DropPages footprint %d, want 0 (block unreserved)", fp)
	}
	if drop.Len() != 0 {
		t.Errorf("Len=%d after DropPages, want 0", drop.Len())
	}
	// A partially covered page is edge-trimmed, not unreserved.
	drop.Set(0x3000, entry(9))
	drop.Set(0x3008, entry(10))
	if units := drop.DropPages(0x3008, pageWords); units != 1 {
		t.Errorf("partial-page DropPages reported %d units, want 1", units)
	}
	if _, ok := drop.Get(0x3000); !ok {
		t.Error("partial-page DropPages removed a slot below the window")
	}
	if fp := drop.FootprintBytes(); fp != pageWords*EntryBytes {
		t.Errorf("partially covered block footprint %d, want %d (still resident)",
			fp, pageWords*EntryBytes)
	}
}

// TestDropPagesDropsTwoLevelTables pins the two-level organisation's table
// release: fully covered second-level tables leave the directory.
func TestDropPagesDropsTwoLevelTables(t *testing.T) {
	tl := NewTwoLevel()
	tl.Set(twoLevelBoundary-8, entry(1)) // table 0
	tl.Set(twoLevelBoundary, entry(2))   // table 1
	tl.Set(twoLevelBoundary+8, entry(3)) // table 1
	tl.Set(3*twoLevelBoundary, entry(4)) // table 3 (outside any window below)
	base := tl.FootprintBytes()

	// Fully cover table 1, edge-trim table 0: table 1's 4 KiB directory
	// share must be released, while table 0 — only partially covered —
	// stays resident with its slots outside the window intact.
	units := tl.DropPages(twoLevelBoundary-8, int(1<<l2Bits)+1)
	if units != 2 {
		t.Errorf("DropPages units = %d, want 2 resident tables", units)
	}
	if tl.Len() != 1 {
		t.Errorf("Len=%d, want 1 (only the table-3 sentinel)", tl.Len())
	}
	if got := tl.FootprintBytes(); got >= base {
		t.Errorf("footprint %d not reduced from %d: table 1 not released", got, base)
	}
	if _, ok := tl.Get(3 * twoLevelBoundary); !ok {
		t.Error("entry outside the window dropped")
	}
}

func TestCopyRangeStraddlesBoundaries(t *testing.T) {
	for _, s := range allStores() {
		// Source window straddles the boundary; destination lands in a
		// fresh region (unreserved shadow pages / absent tables).
		s.Set(twoLevelBoundary-8, entry(1))
		s.Set(twoLevelBoundary+8, entry(2)) // gap at +0: absent source slot

		dst := uint64(0x40_0000)
		s.Set(dst, entry(99)) // must be cleared by the absent source slot

		CopyRange(s, dst-8, twoLevelBoundary-8, 3)
		if e, ok := s.Get(dst - 8); !ok || e.Value != 1 {
			t.Errorf("%s: copied slot below boundary = %+v ok=%v", s.name, e, ok)
		}
		if _, ok := s.Get(dst); ok {
			t.Errorf("%s: absent source slot did not clear destination", s.name)
		}
		if e, ok := s.Get(dst + 8); !ok || e.Value != 2 {
			t.Errorf("%s: copied slot above boundary = %+v ok=%v (want value 2)", s.name, e, ok)
		}

		// Self-copy and empty copies are no-ops.
		before := s.Len()
		CopyRange(s, twoLevelBoundary-8, twoLevelBoundary-8, 2)
		CopyRange(s, dst, twoLevelBoundary-8, 0)
		if s.Len() != before {
			t.Errorf("%s: no-op CopyRange changed Len", s.name)
		}
	}
}
