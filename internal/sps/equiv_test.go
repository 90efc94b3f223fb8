package sps

// Cross-implementation equivalence suite: the three safe-pointer-store
// organisations differ only in access cost and memory footprint; their
// observable state — Get, Len, and the ScanRange enumeration — must be
// identical under any operation sequence. A seeded randomized driver
// exercises Set/Get/Delete/Reset plus the bulk entry points (CopyRange,
// DeleteRange, DropPages, ScanRange) against a model map and checks every
// store after every step.

import (
	"math/rand"
	"sort"
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

// dumpRange enumerates the model's entries with slot address in [lo, hi).
func (m modelStore) dumpRange(lo, hi uint64) []scanPair {
	var out []scanPair
	for _, p := range m.dump() {
		if p.addr >= lo && p.addr < hi {
			out = append(out, p)
		}
	}
	return out
}

// dump enumerates (slot-address, entry) pairs in ascending address order —
// the order ScanRange guarantees.
func (m modelStore) dump() []scanPair {
	out := make([]scanPair, 0, len(m))
	for s, e := range m {
		out = append(out, scanPair{s << 3, e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

type scanPair struct {
	addr uint64
	e    Entry
}

func scanAll(s Store) []scanPair {
	var out []scanPair
	s.ScanRange(0, ^uint64(0), func(addr uint64, e Entry) bool {
		out = append(out, scanPair{addr, e})
		return true
	})
	return out
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

// checkAgainstModel compares one store's full observable state to the model.
func checkAgainstModel(t *testing.T, s named, model modelStore, step int) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("step %d: %s: Len = %d, model has %d", step, s.name, s.Len(), len(model))
	}
	got, want := scanAll(s), model.dump()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s: Scan yields %d entries, model %d", step, s.name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: %s: Scan[%d] = %+v, want %+v", step, s.name, i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].addr <= got[i-1].addr {
			t.Fatalf("step %d: %s: Scan order not strictly ascending at %d", step, s.name, i)
		}
	}
}

// checkScanRange compares a bounded scan against the model over one window.
func checkScanRange(t *testing.T, s named, model modelStore, lo, hi uint64, step int) {
	t.Helper()
	var got []scanPair
	s.ScanRange(lo, hi, func(addr uint64, e Entry) bool {
		got = append(got, scanPair{addr, e})
		return true
	})
	want := model.dumpRange(lo, hi)
	if len(got) != len(want) {
		t.Fatalf("step %d: %s: ScanRange(%#x,%#x) yields %d entries, model %d",
			step, s.name, lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: %s: ScanRange[%d] = %+v, want %+v", step, s.name, i, got[i], want[i])
		}
	}
}

// checkFootprint asserts each organisation's documented footprint model.
func checkFootprint(t *testing.T, s named, step int) {
	t.Helper()
	fp, live := s.FootprintBytes(), int64(s.Len())
	switch st := s.Store.(type) {
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
		st.ScanRange(0, ^uint64(0), func(addr uint64, _ Entry) bool { pages[addr>>12] = true; return true })
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
			switch op := rng.Intn(15); {
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
					s.CopyRange(dst, src, words)
				}
			case op < 12: // DeleteRange
				base := addr()
				words := rng.Intn(pageWords)
				model.deleteRange(base, words)
				for _, s := range stores {
					s.DeleteRange(base, words)
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
			case op < 14: // ScanRange over a random, possibly unaligned window
				lo := addr() + uint64(rng.Intn(8))
				hi := lo + uint64(rng.Intn(2*pageWords*8))
				for _, s := range stores {
					checkScanRange(t, s, model, lo, hi, i)
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
					checkFootprint(t, s, i)
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

// TestScanRangeEarlyStopAndBounds: ScanRange stops on false and respects
// the half-open window, including across shadow-page boundaries.
func TestScanRangeEarlyStopAndBounds(t *testing.T) {
	for _, s := range allStores() {
		// Entries straddling a page boundary (page 0 and page 1).
		for i := uint64(0); i < 2*pageWords; i += 2 {
			s.Set(i*8, Entry{Value: i + 1, Kind: KindData, Upper: 64})
		}
		var addrs []uint64
		lo, hi := uint64(pageWords-8)*8, uint64(pageWords+8)*8
		s.ScanRange(lo, hi, func(a uint64, _ Entry) bool {
			addrs = append(addrs, a)
			return true
		})
		if len(addrs) != 8 {
			t.Errorf("%s: ScanRange across pages visited %d entries, want 8", s.name, len(addrs))
		}
		for _, a := range addrs {
			if a < lo || a >= hi {
				t.Errorf("%s: ScanRange visited %#x outside [%#x,%#x)", s.name, a, lo, hi)
			}
		}
		n := 0
		s.ScanRange(0, 2*pageWords*8, func(uint64, Entry) bool { n++; return n < 3 })
		if n != 3 {
			t.Errorf("%s: early-stop ScanRange visited %d entries, want 3", s.name, n)
		}
		// Unaligned lo excludes the slot it truncates into: the entry at 0
		// must not be visited by a window starting at byte 4 (entries sit
		// at every other word: 0, 16, 32, ...).
		got := []uint64(nil)
		s.ScanRange(4, 64, func(a uint64, _ Entry) bool { got = append(got, a); return true })
		if len(got) != 3 || got[0] != 16 {
			t.Errorf("%s: ScanRange(4,64) visited %v, want [16 32 48]", s.name, got)
		}
	}
}
