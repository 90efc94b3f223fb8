package mem

import (
	"testing"
	"testing/quick"
)

func TestMapLoadStore(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, R|W)
	if err := m.Store(0x1800, 8, 0xdeadbeefcafe); err != nil {
		t.Fatalf("store: %v", err)
	}
	v, err := m.Load(0x1800, 8)
	if err != nil || v != 0xdeadbeefcafe {
		t.Fatalf("load = %#x, %v", v, err)
	}
	// Byte granularity, little-endian.
	b, err := m.Load(0x1800, 1)
	if err != nil || b != 0xfe {
		t.Fatalf("byte load = %#x, %v", b, err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, R|W)
	addr := uint64(0x1ffc) // straddles 0x1000 and 0x2000 pages
	if err := m.Store(addr, 8, 0x1122334455667788); err != nil {
		t.Fatalf("cross-page store: %v", err)
	}
	v, err := m.Load(addr, 8)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("cross-page load = %#x, %v", v, err)
	}
}

func TestFaults(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R|W)
	m.Map(0x3000, 0x1000, R) // read-only
	m.Map(0x5000, 0x1000, R|X)

	if _, err := m.Load(0x9000, 8); err == nil {
		t.Error("unmapped load should fault")
	} else if f := err.(*Fault); f.Kind != FaultUnmapped {
		t.Errorf("kind = %v", f.Kind)
	}
	if err := m.Store(0x3000, 8, 1); err == nil {
		t.Error("RO store should fault")
	} else if f := err.(*Fault); f.Kind != FaultNoWrite {
		t.Errorf("kind = %v", f.Kind)
	}
	if err := m.CheckExec(0x1000); err == nil {
		t.Error("exec of non-X page should fault")
	}
	if err := m.CheckExec(0x5000); err != nil {
		t.Errorf("exec of X page: %v", err)
	}
	if err := m.CheckExec(0x9000); err == nil {
		t.Error("exec of unmapped should fault")
	}
}

func TestForceWriteIgnoresPerms(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R)
	if err := m.ForceWriteString(0x1000, "\x01\x02\x03"); err != nil {
		t.Fatalf("ForceWriteString: %v", err)
	}
	b, err := m.ReadBytes(0x1000, 3)
	if err != nil || b[0] != 1 || b[2] != 3 {
		t.Fatalf("readback = %v, %v", b, err)
	}
}

func TestCString(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, R|W)
	m.WriteBytes(0x1000, []byte("hello\x00world"))
	s, err := m.CString(0x1000, 64)
	if err != nil || s != "hello" {
		t.Fatalf("CString = %q, %v", s, err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x4000, R|W)
	f := func(data []byte, off uint16) bool {
		if len(data) > 2048 {
			data = data[:2048]
		}
		addr := 0x1000 + uint64(off)%0x2000
		if err := m.WriteBytes(addr, data); err != nil {
			return false
		}
		got, err := m.ReadBytes(addr, len(data))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a word stored at any mapped address reads back identically
// (little-endian, byte-assembled).
func TestWordRoundTrip(t *testing.T) {
	m := New()
	m.Map(0, 0x10000, R|W)
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr) % 0xff00
		if err := m.Store(a, 8, v); err != nil {
			return false
		}
		got, err := m.Load(a, 8)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPermString(t *testing.T) {
	if s := (R | W).String(); s != "rw-" {
		t.Errorf("perm string = %q", s)
	}
	if s := (R | X).String(); s != "r-x" {
		t.Errorf("perm string = %q", s)
	}
}

// The translation-cache tests below pin the invariants the direct-mapped
// cache relies on: entries are keyed by the full page number, so pages
// sharing a set evict each other without aliasing; permission changes are
// seen through the cached page; and Reset flushes every entry.

// collidingAddrs returns word addresses on distinct pages that all fall in
// the cache set of each base: the VM's code, global, heap and stack layout
// bases plus pages exactly cacheWays pages apart from each of them.
func collidingAddrs() []uint64 {
	bases := []uint64{0x0101_0140, 0x0180_0140, 0x0240_0140, 0x7ffe_f140}
	var addrs []uint64
	for _, b := range bases {
		for j := uint64(0); j < 4; j++ {
			addrs = append(addrs, b+j*cacheWays*PageSize)
		}
	}
	return addrs
}

func TestCacheCollisionsStayCorrect(t *testing.T) {
	m := New()
	addrs := collidingAddrs()
	for _, a := range addrs {
		m.Map(a&^offMask, PageSize, R|W)
	}
	want := map[uint64]uint64{}
	for round := uint64(0); round < 8; round++ {
		// Interleave stores and loads across the colliding pages so every
		// access evicts the entry the previous one installed.
		for i, a := range addrs {
			v := round<<32 | uint64(i)
			switch (int(round) + i) % 3 {
			case 0:
				if err := m.StoreWord(a, v); err != nil {
					t.Fatal(err)
				}
			case 1:
				if !m.TryStoreWord(a, v) {
					if err := m.Store(a, 8, v); err != nil {
						t.Fatal(err)
					}
				}
			default:
				if err := m.Store(a, 8, v); err != nil {
					t.Fatal(err)
				}
			}
			want[a] = v
			// a's page now owns the set; a colliding page must miss (or,
			// never, alias a's data).
			c := addrs[i^1]
			if got, ok := m.TryLoadWord(c); ok && got != want[c] {
				t.Fatalf("round %d: TryLoadWord(%#x) = %#x aliases a colliding page; want %#x", round, c, got, want[c])
			}
			j := (i + len(addrs)/2) % len(addrs)
			b := addrs[j]
			got, err := m.LoadWord(b)
			if err != nil || got != want[b] {
				t.Fatalf("round %d: LoadWord(%#x) = %#x, %v; want %#x", round, b, got, err, want[b])
			}
			if got, ok := m.TryLoadWord(b); !ok || got != want[b] {
				t.Fatalf("round %d: TryLoadWord(%#x) right after a load = %#x, %v; want %#x", round, b, got, ok, want[b])
			}
		}
	}
	for _, a := range addrs {
		if got, err := m.Load(a, 8); err != nil || got != want[a] {
			t.Errorf("final Load(%#x) = %#x, %v; want %#x", a, got, err, want[a])
		}
	}
}

// TestProtectAfterCaching: re-Mapping a cached page, as malloc's heap growth
// does to the pages the loader mapped, changes its permissions in place,
// and the translation cache sees the change.
func TestProtectAfterCaching(t *testing.T) {
	m := New()
	const a = 0x4000
	m.Map(a, PageSize, R|W)
	if err := m.Store(a, 8, 7); err != nil {
		t.Fatal(err)
	}
	if !m.TryStoreWord(a, 8) {
		t.Fatal("page not cached after a store")
	}

	m.Map(a, PageSize, R)
	if m.TryStoreWord(a, 9) {
		t.Error("TryStoreWord succeeded on a page remapped read-only")
	}
	if err := m.StoreWord(a, 9); err == nil || err.(*Fault).Kind != FaultNoWrite {
		t.Errorf("StoreWord after Map(R) = %v, want a no-write fault", err)
	}
	if v, ok := m.TryLoadWord(a); !ok || v != 8 {
		t.Errorf("TryLoadWord after Map(R) = %d, %v; want 8, true", v, ok)
	}

	m.Map(a, PageSize, 0)
	if _, ok := m.TryLoadWord(a); ok {
		t.Error("TryLoadWord succeeded on a page with no permissions")
	}
	if _, err := m.LoadWord(a); err == nil || err.(*Fault).Kind != FaultNoRead {
		t.Errorf("LoadWord after Map(0) = %v, want a no-read fault", err)
	}

	m.Map(a, PageSize, R|W)
	if !m.TryStoreWord(a, 10) {
		t.Error("TryStoreWord failed after restoring R|W")
	}
	if v, err := m.Load(a, 8); err != nil || v != 10 {
		t.Errorf("Load after restoring R|W = %d, %v; want 10", v, err)
	}
}

// TestTryByteAccess: the byte fast paths hit on a cached page, its last
// byte included (a byte never straddles pages), store only the low byte,
// miss on an uncached or unmapped page, and refuse a page that lacks the
// permission.
func TestTryByteAccess(t *testing.T) {
	m := New()
	const pg = 0x4000
	const a = pg + PageSize - 1
	m.Map(pg, PageSize, R|W)
	if _, ok := m.TryLoadByte(a); ok {
		t.Error("TryLoadByte hit a page never touched")
	}
	if _, ok := m.TryLoadByte(0); ok {
		t.Error("TryLoadByte hit an unmapped page")
	}
	if err := m.Store(a, 1, 0x1ab); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.TryLoadByte(a); !ok || v != 0xab {
		t.Errorf("TryLoadByte = %#x, %v; want 0xab, true", v, ok)
	}
	if !m.TryStoreByte(a, 0x2cd) {
		t.Error("TryStoreByte missed a cached writable page")
	}
	if v, err := m.Load(a-7, 8); err != nil || v != 0xcd<<56 {
		t.Errorf("word ending at the stored byte = %#x, %v; want %#x", v, err, uint64(0xcd)<<56)
	}
	m.Map(pg, PageSize, R)
	if m.TryStoreByte(a, 1) {
		t.Error("TryStoreByte succeeded on a page remapped read-only")
	}
	m.Map(pg, PageSize, 0)
	if _, ok := m.TryLoadByte(a); ok {
		t.Error("TryLoadByte succeeded on a page with no permissions")
	}
}

func TestResetFlushesCache(t *testing.T) {
	m := New()
	// One page per cache entry, each touched so every entry is filled.
	const base = 0x10_0000
	for i := uint64(0); i < cacheWays; i++ {
		a := base + i*PageSize
		m.Map(a, PageSize, R|W)
		if err := m.Store(a, 8, i+1); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset()
	for i := uint64(0); i < cacheWays; i++ {
		a := base + i*PageSize
		if _, ok := m.TryLoadWord(a); ok {
			t.Fatalf("TryLoadWord(%#x) hit after Reset", a)
		}
		if m.TryStoreWord(a, 1) {
			t.Fatalf("TryStoreWord(%#x) hit after Reset", a)
		}
		if _, err := m.Load(a, 8); err == nil || err.(*Fault).Kind != FaultUnmapped {
			t.Fatalf("Load(%#x) after Reset = %v, want an unmapped fault", a, err)
		}
	}
	// A page mapped again after Reset reads zeros, even though its frame
	// is recycled from the pre-Reset working set.
	m.Map(base, PageSize, R|W)
	if v, err := m.LoadWord(base); err != nil || v != 0 {
		t.Errorf("remapped page reads %d, %v; want 0", v, err)
	}
	if v, ok := m.TryLoadWord(base); !ok || v != 0 {
		t.Errorf("TryLoadWord on the remapped page = %d, %v; want 0, true", v, ok)
	}
}
