package sps

// Cross-implementation equivalence suite: the three safe-pointer-store
// organisations differ only in access cost and memory footprint; their
// observable state — Get and Len — must be identical under any operation
// sequence. A seeded random operation sequence exercises Set/Get/Delete/
// Reset plus the bulk entry points (CopyRange, DeleteRange, DropPages)
// against a model map and checks every store periodically.

import (
	"math/rand"
	"testing"
)

// modelStore is the reference semantics: a flat map from 8-byte slot to
// entry, where the zero Entry is "absent".
type modelStore map[uint64]Entry

func (m modelStore) set(addr uint64, e Entry) {
	if e == (Entry{}) {
		delete(m, addr>>3)
		return
	}
	m[addr>>3] = e
}

func (m modelStore) get(addr uint64) (Entry, bool) {
	e, ok := m[addr>>3]
	return e, ok
}

func (m modelStore) del(addr uint64) { delete(m, addr>>3) }

// copyRange is the reference CopyRange: snapshot every source word, then
// write the destinations.
func (m modelStore) copyRange(dst, src uint64, words int) {
	if words <= 0 {
		return
	}
	snap := make([]struct {
		e  Entry
		ok bool
	}, words)
	for i := range snap {
		snap[i].e, snap[i].ok = m.get(src + uint64(i)*8)
	}
	for i := range snap {
		if snap[i].ok {
			m.set(dst+uint64(i)*8, snap[i].e)
		} else {
			m.del(dst + uint64(i)*8)
		}
	}
}

func (m modelStore) deleteRange(base uint64, words int) {
	for i := 0; i < words; i++ {
		m.del(base + uint64(i)*8)
	}
}

// dropPages is the reference DropPages: observably it is exactly
// deleteRange — the unit count and storage release are implementation
// facets the model does not track. It returns the number of live entries
// removed, which must equal the hash organisation's unit count.
func (m modelStore) dropPages(base uint64, words int) int {
	if words <= 0 {
		return 0
	}
	removed := 0
	for i := 0; i < words; i++ {
		if _, ok := m.get(base + uint64(i)*8); ok {
			removed++
		}
		m.del(base + uint64(i)*8)
	}
	return removed
}

// randEntry draws an entry; about 1 in 8 is the zero Entry, exercising the
// canonical set-zero-clears-slot semantics.
func randEntry(rng *rand.Rand) Entry {
	if rng.Intn(8) == 0 {
		return Entry{}
	}
	base := rng.Uint64() % (1 << 30)
	return Entry{
		Value: base + 16,
		Lower: base,
		Upper: base + 64 + rng.Uint64()%4096,
		ID:    rng.Uint64() % 1024,
		Kind:  Kind(1 + rng.Intn(2)), // KindData or KindCode
	}
}

// checkAgainstModel compares one store's full observable state to the
// model: every model entry is present and equal, and equal Len then rules
// out any entry the model lacks.
func checkAgainstModel(t *testing.T, s named, model modelStore, step int) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("step %d: %s: Len = %d, model has %d", step, s.name, s.Len(), len(model))
	}
	for slot, want := range model {
		if e, ok := s.Get(slot << 3); !ok || e != want {
			t.Fatalf("step %d: %s: Get(%#x) = %+v,%v want %+v", step, s.name, slot<<3, e, ok, want)
		}
	}
}

// checkFootprint asserts each organisation's documented footprint model.
// The store has already matched the model (checkAgainstModel).
func checkFootprint(t *testing.T, s named, model modelStore, step int) {
	t.Helper()
	fp, live := s.FootprintBytes(), int64(s.Len())
	switch s.Store.(type) {
	case *Hash:
		// Entries plus key word and ~1.5x table slack — exact by model.
		if want := live * (EntryBytes + 8) * 3 / 2; fp != want {
			t.Fatalf("step %d: hash footprint %d, want %d for %d live", step, fp, want, live)
		}
	case *Array:
		// Whole 16 KiB shadow blocks; at least enough pages to hold the
		// live entries, and never allocated for a never-set page.
		if fp%(pageWords*EntryBytes) != 0 {
			t.Fatalf("step %d: array footprint %d not block-granular", step, fp)
		}
		pages := map[uint64]bool{}
		for slot := range model {
			pages[slot>>9] = true
		}
		if min := int64(len(pages)) * pageWords * EntryBytes; fp < min {
			t.Fatalf("step %d: array footprint %d below %d needed for %d live pages",
				step, fp, min, len(pages))
		}
	case *TwoLevel:
		// Directory pages plus per-entry slots: at least the live entries.
		if fp < live*EntryBytes {
			t.Fatalf("step %d: twolevel footprint %d below %d live bytes",
				step, fp, live*EntryBytes)
		}
	}
	if live == 0 && s.name == "hash" && fp != 0 {
		t.Fatalf("step %d: empty hash footprint %d", step, fp)
	}
}

// FuzzCrossStoreEquivalence drives all three organisations plus the model
// through one randomized operation sequence per seed; the seed corpus is
// seeds 1–4.
func FuzzCrossStoreEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		stores := allStores()
		model := modelStore{}

		// Cluster addresses on a handful of pages so overwrites,
		// deletes of absent slots, and shared-page entries all occur.
		addr := func() uint64 {
			page := rng.Uint64() % 16
			return page<<12 | (rng.Uint64()%pageWords)<<3
		}

		const steps = 2000
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(14); {
			case op < 5: // Set (sometimes the zero Entry)
				a, e := addr(), randEntry(rng)
				model.set(a, e)
				for _, s := range stores {
					s.Set(a, e)
				}
			case op < 8: // Get
				a := addr()
				we, wok := model.get(a)
				for _, s := range stores {
					if e, ok := s.Get(a); ok != wok || e != we {
						t.Fatalf("step %d: %s: Get(%#x) = %+v,%v want %+v,%v",
							i, s.name, a, e, ok, we, wok)
					}
				}
			case op < 9: // Delete (often of an absent slot)
				a := addr()
				model.del(a)
				for _, s := range stores {
					s.Delete(a)
				}
			case op < 11: // CopyRange (overlapping ranges included)
				dst, src := addr(), addr()
				words := rng.Intn(3 * pageWords / 2) // spans page boundaries
				model.copyRange(dst, src, words)
				for _, s := range stores {
					CopyRange(s, dst, src, words)
				}
			case op < 12: // DeleteRange
				base := addr()
				words := rng.Intn(pageWords)
				model.deleteRange(base, words)
				for _, s := range stores {
					DeleteRange(s, base, words)
				}
			case op < 13: // DropPages (page-granular bulk invalidation)
				base := addr()
				// Spans several shadow pages so fully covered blocks
				// get unreserved, not just edge-trimmed.
				words := rng.Intn(3 * pageWords)
				removed := model.dropPages(base, words)
				for _, s := range stores {
					units := s.DropPages(base, words)
					if units < 0 {
						t.Fatalf("step %d: %s: DropPages units = %d", i, s.name, units)
					}
					if _, isHash := s.Store.(*Hash); isHash && units != removed {
						t.Fatalf("step %d: hash DropPages units = %d, want %d removed entries",
							i, units, removed)
					}
				}
			default:
				if rng.Intn(50) == 0 { // rare full clear
					model = modelStore{}
					for _, s := range stores {
						s.Reset()
					}
				}
			}
			if i%100 == 99 || i == steps-1 {
				for _, s := range stores {
					checkAgainstModel(t, s, model, i)
					checkFootprint(t, s, model, i)
				}
			}
		}
	})
}

// TestSetZeroEntryClears pins the canonical zero-entry semantics on every
// organisation: Set(addr, Entry{}) is Delete(addr), and it neither counts
// as live nor reserves footprint for untouched addresses.
func TestSetZeroEntryClears(t *testing.T) {
	for _, s := range allStores() {
		e := Entry{Value: 1, Upper: 64, Kind: KindCode}
		s.Set(0x4000, e)
		s.Set(0x4000, Entry{})
		if _, ok := s.Get(0x4000); ok {
			t.Errorf("%s: zero-entry Set must clear the slot", s.name)
		}
		if s.Len() != 0 {
			t.Errorf("%s: Len = %d after zero-entry Set, want 0", s.name, s.Len())
		}
		// Zero-entry Set on a virgin address must not grow the store.
		before := s.FootprintBytes()
		s.Set(0xdead_f000, Entry{})
		if fp := s.FootprintBytes(); fp != before {
			t.Errorf("%s: zero-entry Set reserved %d footprint bytes", s.name, fp-before)
		}
		if s.Len() != 0 {
			t.Errorf("%s: zero-entry Set on empty slot counted as live", s.name)
		}
	}
}
