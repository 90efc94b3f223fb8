package sps

import (
	"testing"
	"testing/quick"
)

// named pairs a store with its organisation's name for test messages.
type named struct {
	Store
	name string
}

func allStores() []named {
	return []named{{NewArray(), "array"}, {NewTwoLevel(), "twolevel"}, {NewHash(), "hash"}}
}

func TestBasicSetGetDelete(t *testing.T) {
	for _, s := range allStores() {
		e := Entry{Value: 0x400010, Lower: 0x400000, Upper: 0x400100, ID: 7, Kind: KindData}
		s.Set(0x7000_0000, e)
		got, ok := s.Get(0x7000_0000)
		if !ok || got != e {
			t.Errorf("%s: Get = %+v, %v", s.name, got, ok)
		}
		if _, ok := s.Get(0x7000_0008); ok {
			t.Errorf("%s: adjacent slot should be empty", s.name)
		}
		s.Delete(0x7000_0000)
		if _, ok := s.Get(0x7000_0000); ok {
			t.Errorf("%s: deleted entry still present", s.name)
		}
	}
}

func TestOverwrite(t *testing.T) {
	for _, s := range allStores() {
		s.Set(64, Entry{Value: 1, Kind: KindCode})
		s.Set(64, Entry{Value: 2, Kind: KindCode})
		e, ok := s.Get(64)
		if !ok || e.Value != 2 {
			t.Errorf("%s: overwrite lost: %+v", s.name, e)
		}
	}
}

func TestFootprintOrdering(t *testing.T) {
	// The array must cost dramatically more memory than the hash for
	// scattered pointers (105% vs 13.9% in §5.2).
	arr, hash := NewArray(), NewHash()
	for i := uint64(0); i < 1000; i++ {
		addr := i * 4096 // one pointer per page: worst case for the array
		e := Entry{Value: addr, Kind: KindData, Upper: addr + 8}
		arr.Set(addr, e)
		hash.Set(addr, e)
	}
	if arr.FootprintBytes() <= hash.FootprintBytes()*4 {
		t.Errorf("array footprint %d should far exceed hash %d for sparse data",
			arr.FootprintBytes(), hash.FootprintBytes())
	}
}

func TestValid(t *testing.T) {
	if (Entry{Kind: KindInvalid}).Valid() {
		t.Error("invalid entry is Valid")
	}
	if !(Entry{Kind: KindCode}).Valid() || !(Entry{Kind: KindData}).Valid() {
		t.Error("code/data entries must be Valid")
	}
}

// Property: the three organisations are observationally equivalent under a
// random operation sequence.
func TestImplementationsAgree(t *testing.T) {
	f := func(ops []struct {
		Addr uint64
		Val  uint64
		Op   uint8
	}) bool {
		ss := allStores()
		for _, op := range ops {
			addr := op.Addr % (1 << 20)
			switch op.Op % 3 {
			case 0:
				e := Entry{Value: op.Val, Lower: op.Val, Upper: op.Val + 64, Kind: KindData}
				for _, s := range ss {
					s.Set(addr, e)
				}
			case 1:
				var ref Entry
				var refOK bool
				for i, s := range ss {
					e, ok := s.Get(addr)
					if i == 0 {
						ref, refOK = e, ok
					} else if e != ref || ok != refOK {
						return false
					}
				}
			case 2:
				for _, s := range ss {
					s.Delete(addr)
				}
			}
		}
		for i := 1; i < len(ss); i++ {
			if ss[i].Len() != ss[0].Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Len tracks live entries exactly.
func TestLenExact(t *testing.T) {
	f := func(addrs []uint32) bool {
		for _, s := range allStores() {
			seen := map[uint64]bool{}
			for _, a := range addrs {
				addr := uint64(a&0xffff) &^ 7
				s.Set(addr, Entry{Value: 1, Kind: KindCode})
				seen[addr>>3] = true
			}
			if s.Len() != len(seen) {
				return false
			}
			s.Reset()
			if s.Len() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
