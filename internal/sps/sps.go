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
// equivalent to Delete(addr) in every organisation.
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
	// CopyRange copies the entries of the words base src+8i to the words
	// base dst+8i for i in [0, words): for each word, the destination slot
	// becomes a copy of the source slot (absent source clears the
	// destination). It is overlap-safe — equivalent to snapshotting all
	// source slots first — and is the bulk entry point of the safe-variant
	// memcpy (§3.2.2), replacing words per-word Get+Set/Delete round trips
	// through the generic interface.
	CopyRange(dst, src uint64, words int)
	// DeleteRange removes the entries of the words base+8i for i in
	// [0, words) (the safe-variant memset bulk path).
	DeleteRange(base uint64, words int)
	// DropPages is the free()/munmap-style bulk invalidation: observably it
	// is DeleteRange(base, words), but each organisation additionally
	// releases the backing storage the cleared window occupied (the array
	// unreserves whole shadow pages, the two-level store drops fully covered
	// second-level tables, the hash falls back to a ranged delete). The
	// return value is the number of occupied units the call touched —
	// resident shadow pages, resident second-level tables, or (for the
	// hash) removed entries — which is what the page-granular cost model
	// charges instead of a per-word charge over the whole window.
	DropPages(base uint64, words int) int
}
