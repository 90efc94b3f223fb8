package vm

import (
	"testing"

	"repro/internal/mem"
)

// The reference bodies of strlen, strcmp/strncmp and memcmp: one Load per
// byte, each its own page translation and fault check. The chunked
// intrinsics must agree with them on every result, trap and cycle count.

func (m *Machine) refStrlen(s uint64) (int64, bool) {
	var n int64
	for {
		c, err := m.mem.Load(s+uint64(n), 1)
		if err != nil {
			m.memFault(err)
			return 0, false
		}
		if c == 0 {
			return n, true
		}
		n++
		if n > 1<<20 {
			m.trapf(TrapSegFault, s, ViaNone, "unterminated string")
			return 0, false
		}
	}
}

func (m *Machine) refStrcmp(a, b uint64, max int64) (int64, bool) {
	var i int64
	for {
		if max >= 0 && i >= max {
			return 0, true
		}
		ca, err := m.mem.Load(a+uint64(i), 1)
		if err != nil {
			m.memFault(err)
			return 0, false
		}
		cb, err := m.mem.Load(b+uint64(i), 1)
		if err != nil {
			m.memFault(err)
			return 0, false
		}
		if ca != cb {
			return int64(ca) - int64(cb), true
		}
		if ca == 0 {
			return 0, true
		}
		i++
	}
}

func (m *Machine) refMemcmp(a, b uint64, n int64) (int64, bool) {
	ba, err := m.mem.ReadBytes(a, int(n))
	if err != nil {
		m.memFault(err)
		return 0, false
	}
	bb, err := m.mem.ReadBytes(b, int(n))
	if err != nil {
		m.memFault(err)
		return 0, false
	}
	for i := int64(0); i < n; i++ {
		if ba[i] != bb[i] {
			return int64(ba[i]) - int64(bb[i]), true
		}
	}
	return 0, true
}

// strBase is the fuzzed string region: four pages whose permissions the
// fuzzer picks, far from the machine's own segments.
const strBase = 0x1000_0000_0000

// strLongPages follow the four fuzzed pages when the fuzzer asks for a long
// tail: readable and free of NULs past strlen's bound, so strings can run
// into the unterminated-string trap.
const strLongPages = strlenMax/mem.PageSize + 1

// strAddr places a 16-bit fuzz value in the region: with the top bit set,
// within 64 bytes of the end of one of the four pages (so strings cross
// page edges); otherwise anywhere in the four pages.
func strAddr(x uint16) uint64 {
	if x&0x8000 != 0 {
		return strBase + uint64(x>>12&3)*mem.PageSize + mem.PageSize - 1 - uint64(x&63)
	}
	return strBase + uint64(x)%(4*mem.PageSize)
}

// setupStrings maps and fills the region on m. Each page takes two bits of
// perms: unmapped, read-write, read-only or write-only (unreadable). Mapped
// pages are filled with 'a', then edits, in triples, plant one byte each
// (a NUL ends a string, any other value makes two strings differ).
func setupStrings(m *Machine, perms uint8, long bool, edits []byte) {
	for pg := uint64(0); pg < 4+strLongPages; pg++ {
		if pg < 4 && perms>>(2*pg)&3 == 0 || pg >= 4 && !long {
			continue
		}
		a := strBase + pg*mem.PageSize
		m.mem.Map(a, mem.PageSize, mem.R|mem.W)
		m.mem.Fill(a, 'a', mem.PageSize)
	}
	for ; len(edits) >= 3; edits = edits[3:] {
		m.mem.Store(strAddr(uint16(edits[0])<<8|uint16(edits[1])), 1, uint64(edits[2])) // a fault just skips the edit
	}
	for pg := uint64(0); pg < 4; pg++ {
		switch perms >> (2 * pg) & 3 {
		case 2:
			m.mem.Map(strBase+pg*mem.PageSize, mem.PageSize, mem.R)
		case 3:
			m.mem.Map(strBase+pg*mem.PageSize, mem.PageSize, mem.W)
		}
	}
}

// sameOutcome requires two machines to agree after one intrinsic: result,
// trap kind, address and message, and cycles.
func sameOutcome(t *testing.T, name string, m, ref *Machine, got, want int64, gok, wok bool) {
	t.Helper()
	if got != want || gok != wok || m.cycles != ref.cycles {
		t.Fatalf("%s = %d, %v (%d cycles); reference %d, %v (%d cycles)", name, got, gok, m.cycles, want, wok, ref.cycles)
	}
	if (m.trap == nil) != (ref.trap == nil) {
		t.Fatalf("%s: trap %v; reference %v", name, m.trap, ref.trap)
	}
	if m.trap != nil && (m.trap.Kind != ref.trap.Kind || m.trap.Target != ref.trap.Target || m.trap.Msg != ref.trap.Msg) {
		t.Fatalf("%s: trap %v at %#x (%s); reference %v at %#x (%s)", name,
			m.trap.Kind, m.trap.Target, m.trap.Msg, ref.trap.Kind, ref.trap.Target, ref.trap.Msg)
	}
}

// FuzzStringIntrinsics runs strlen, strcmp, strncmp and memcmp on strings
// the fuzzer places across page edges and next to unmapped or unreadable
// pages, on one machine through the chunked intrinsics and on another
// through the byte-at-a-time reference bodies above, and requires equal
// outcomes. n bounds strncmp (negative: unbounded, as strcmp) and, clamped
// to five pages, memcmp.
func FuzzStringIntrinsics(f *testing.F) {
	p := compile(f, `int main(void) { return 0; }`)
	f.Add(uint8(0x55), false, uint16(0x8005), uint16(0x9005), int64(-1), []byte{0x90, 0x01, 0})
	f.Add(uint8(0xd9), false, uint16(0x8010), uint16(0x8010), int64(40), []byte{0x80, 0x02, 'b', 0x91, 0x03, 0})
	f.Add(uint8(0x65), true, uint16(0xb000), uint16(0x3000), int64(-1), []byte{})
	f.Add(uint8(0x15), false, uint16(0x8001), uint16(0x0100), int64(9000), []byte{0x01, 0x10, 0, 0x80, 0x00, 'z'})
	// Both strings empty, at the last byte of page 0, followed by equal
	// bytes up to an unmapped page: the NUL must end the comparison.
	f.Add(uint8(0x05), false, uint16(0x8000), uint16(0x8000), int64(-1), []byte{0x80, 0x00, 0})
	f.Fuzz(func(t *testing.T, perms uint8, long bool, xa, xb uint16, n int64, edits []byte) {
		var ms [2]*Machine
		for i := range ms {
			m, err := New(p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			setupStrings(m, perms, long, edits)
			ms[i] = m
		}
		m, ref := ms[0], ms[1]
		a, b := strAddr(xa), strAddr(xb)
		clear := func() { m.trap, ref.trap, m.cycles, ref.cycles = nil, nil, 0, 0 }

		got, gok := m.strlen(a)
		want, wok := ref.refStrlen(a)
		sameOutcome(t, "strlen", m, ref, got, want, gok, wok)
		clear()
		got, gok = m.compare(a, b, -1, true)
		want, wok = ref.refStrcmp(a, b, -1)
		sameOutcome(t, "strcmp", m, ref, got, want, gok, wok)
		clear()
		got, gok = m.compare(a, b, n, true)
		want, wok = ref.refStrcmp(a, b, n)
		sameOutcome(t, "strncmp", m, ref, got, want, gok, wok)
		clear()
		k := min(max(n, 0), 5*mem.PageSize)
		got, gok = m.memcmp(a, b, k)
		want, wok = ref.refMemcmp(a, b, k)
		sameOutcome(t, "memcmp", m, ref, got, want, gok, wok)
	})
}
