// Package sps implements the safe pointer store of §3.2.2: the isolated map
// from the address of a sensitive pointer (as allocated in the regular
// region) to its protected value and based-on metadata (lower/upper bounds
// and a temporal id, Fig. 2).
//
// Three organisations are provided, matching §4: a simple array relying on
// sparse address-space support (modelled with per-page entry blocks, the
// superpage-backed variant the paper found fastest), a two-level lookup
// table, and a hash table. All three behave identically; they differ in
// memory footprint, which the memory overhead experiment (§5.2) consumes,
// and in access cost, which the VM's CostModel prices per organisation
// (SPSArray, SPSTwoLevel, SPSHash) rather than the store itself.
//
// The bulk copy and delete of the safe memcpy/memset (CopyRange,
// DeleteRange) are package functions written once over a store's Get, Set
// and Delete. DropPages, the free()-time invalidation, is the one range
// operation each organisation implements itself, because what it releases
// and what it is charged for differ per organisation.
package sps

// Entry is the protected copy of one sensitive pointer.
type Entry struct {
	Value uint64 // the pointer value itself (CPI also stores the value, §3.2.2)
	Lower uint64 // lowest valid address of the target object
	Upper uint64 // one past the highest valid address
	ID    uint64 // temporal allocation id (0 for static objects)
	Kind  Kind   // provenance of the value
}

// Kind is the provenance class of a protected value.
type Kind uint8

// Provenance kinds.
const (
	// KindInvalid marks universal pointers holding non-sensitive values;
	// such entries never grant access to the safe region (§3.2.2:
	// "invalid" metadata, e.g. lower bound greater than upper bound).
	KindInvalid Kind = iota
	// KindData is a data pointer with object bounds.
	KindData
	// KindCode is a code pointer (bounds degenerate to the exact target,
	// §3.3: "the pointer value must always match the destination exactly").
	KindCode
)

// Valid reports whether the entry grants any access.
func (e Entry) Valid() bool { return e.Kind != KindInvalid }

// EntryBytes is the modelled size of one safe-pointer-store entry:
// value + lower + upper + id, four 8-byte words (Fig. 2).
const EntryBytes = 32

// Store is a safe pointer store organisation. All organisations share one
// observable semantics (the cross-implementation equivalence suite enforces
// it): addresses are identified by their 8-byte slot, and the zero Entry is
// the canonical "absent" state — the direct-mapped array physically cannot
// distinguish a zero entry from an empty slot, so Set(addr, Entry{}) is
// equivalent to Delete(addr) in every organisation. Bulk copy and delete
// are the functions CopyRange and DeleteRange over these methods;
// DropPages is the one range operation an organisation implements itself.
type Store interface {
	// Set records the protected copy for the sensitive pointer stored at
	// regular-region address addr. Setting the zero Entry clears the slot.
	Set(addr uint64, e Entry)
	// Get returns the protected copy, if any.
	Get(addr uint64) (Entry, bool)
	// Delete removes the entry (used on frees and invalidating stores).
	Delete(addr uint64)
	// Len returns the number of live entries.
	Len() int
	// FootprintBytes models the memory the organisation consumes
	// (the §5.2 memory-overhead experiment).
	FootprintBytes() int64
	// Reset drops all entries.
	Reset()
	// DropPages is the free()/munmap-style bulk invalidation: observably it
	// is DeleteRange(s, base, words), but each organisation additionally
	// releases the backing storage the cleared window occupied (the array
	// unreserves whole shadow pages, the two-level store drops fully covered
	// second-level tables, the hash falls back to a ranged delete). The
	// return value is the number of occupied units the call touched —
	// resident shadow pages, resident second-level tables, or (for the
	// hash) removed entries — which is what the page-granular cost model
	// charges instead of a per-word charge over the whole window.
	DropPages(base uint64, words int) int
}

// CopyRange copies the entries of the words src+8i to the words dst+8i for
// i in [0, words): each destination slot becomes a copy of its source slot,
// and an absent source clears the destination. It is the bulk path of the
// safe memcpy (§3.2.2) and is overlap-safe: the word slots are slot(dst)+i
// and slot(src)+i, so iterating downward when slot(dst) > slot(src) (and
// upward otherwise) reads every source slot before any copy can overwrite
// it, which is equivalent to snapshotting all source slots first.
func CopyRange(s Store, dst, src uint64, words int) {
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

// DeleteRange removes the entries of the words base+8i for i in [0, words)
// (the bulk path of the safe memset).
func DeleteRange(s Store, base uint64, words int) {
	for i := 0; i < words; i++ {
		s.Delete(base + uint64(i)*8)
	}
}
