package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/instrument"
	"repro/internal/ir"
	"repro/internal/sps"
)

// auditCase is one auditRange window over the fixture that runAuditCases
// lays out at auditBase: data entries at +0 and +8, code entries at +16 and
// +40.
type auditCase struct {
	lo     uint64 // window start, as an offset from auditBase (wraps mod 2^64)
	n      int64
	trapAt int64 // offset of the reported slot; -1: no trap
}

const auditBase = 0x10000

// runAuditCases runs each case through auditRange on every store
// organisation and checks the trap address and message.
func runAuditCases(t *testing.T, cases []auditCase) {
	t.Helper()
	p := compile(t, `int main(void) { return 0; }`)
	code := PredecodeWith(p, PredecodeOptions{AuditHooks: true})
	for _, org := range []string{"array", "twolevel", "hash"} {
		m, err := NewShared(p, code, Config{Protect: backend.CPI, SPS: org, AuditSensitive: true})
		if err != nil {
			t.Fatal(err)
		}
		for off, kind := range map[uint64]sps.Kind{0: sps.KindData, 8: sps.KindData, 16: sps.KindCode, 40: sps.KindCode} {
			m.spsStore().Set(auditBase+off, sps.Entry{Value: 0x1000, Lower: 0x1000, Upper: 0x1001, Kind: kind})
		}
		for _, tc := range cases {
			m.trap = nil
			ok := m.auditRange(auditBase+tc.lo, tc.n, "memset")
			slot := uint64(auditBase + tc.trapAt)
			msg := fmt.Sprintf("plain memset over protected code pointer at %#x", slot)
			switch {
			case tc.trapAt < 0 && (!ok || m.trap != nil):
				t.Errorf("%s %+v: trapped: %+v", org, tc, m.trap)
			case tc.trapAt >= 0 && (ok || m.trap == nil || m.trap.Kind != TrapAuditSensitive || m.trap.Target != slot || m.trap.Msg != msg):
				t.Errorf("%s %+v: ok=%v, trap %+v; want TrapAuditSensitive at %#x (%q)", org, tc, ok, m.trap, slot, msg)
			}
		}
	}
}

// TestAuditRangeTrapsOnCodeEntries pins auditRange's basic window semantics
// on every store organisation: the lowest code-provenance slot whose address
// lies in [base, base+n) traps, and data entries never do.
func TestAuditRangeTrapsOnCodeEntries(t *testing.T) {
	runAuditCases(t, []auditCase{
		{0, 64, 16},  // both code slots: the lower one
		{0, 16, -1},  // data entries only
		{24, 24, 40}, // the upper code slot only
	})
}

// TestAuditRangeEmptyWindows pins the windows that probe nothing: a zero or
// negative length, and a window that wraps the address space even when its
// wrapped end lies past a code slot.
func TestAuditRangeEmptyWindows(t *testing.T) {
	runAuditCases(t, []auditCase{
		{16, 0, -1},  // empty
		{16, -8, -1}, // negative length
		{^uint64(0) - auditBase - 7, auditBase + 8 + 48, -1}, // [2^64-8, base+48) wraps
		{^uint64(0) - auditBase - 2, auditBase + 3 + 48, -1}, // [2^64-3, base+48) wraps
	})
}

// TestAuditRangeUnalignedBounds pins the byte-granular bounds: a slot that
// starts below base is outside the window, and a window end is exclusive, so
// a slot is inside exactly when it starts below base+n.
func TestAuditRangeUnalignedBounds(t *testing.T) {
	runAuditCases(t, []auditCase{
		{17, 23, -1}, // starts 1 byte past a code slot
		{23, 17, -1}, // starts 7 bytes past a code slot
		{17, 24, 40}, // 1 byte past one code slot, reaching the next
		{9, 8, 16},   // unaligned start below a code slot
		{24, 16, -1}, // ends exactly at a code slot
		{24, 17, 40}, // ends 1 byte into a code slot
	})
}

// TestAuditOracleCatchesPlainMemset strips ProtSafeIntr from a memset over
// a struct that holds a function pointer: the plain variant would leave the
// protected entry behind, and the audit oracle must trap on it.
func TestAuditOracleCatchesPlainMemset(t *testing.T) {
	src := `
struct holder { void (*fn)(void); int n; };
void f(void) {}
int main(void) {
	struct holder *h = (struct holder *)malloc(sizeof(struct holder));
	h->fn = f;
	memset(h, 0, sizeof(struct holder));
	return 0;
}`
	for _, tc := range []struct {
		strip bool
		want  TrapKind
	}{{false, TrapExit}, {true, TrapAuditSensitive}} {
		p := compile(t, src)
		instrument.SafeStack(p)
		instrument.WithBackend(p, backend.CPI.Backend(), instrument.Opts{})
		safe := 0
		for _, b := range p.FuncByName("main").Blocks {
			for i := range b.Ins {
				if in := &b.Ins[i]; in.Op == ir.OpCall && in.Intr.Name() == "memset" && in.Flags&ir.ProtSafeIntr != 0 {
					safe++
					if tc.strip {
						in.Flags &^= ir.ProtSafeIntr
					}
				}
			}
		}
		if safe != 1 {
			t.Fatalf("main has %d safe-variant memsets, want 1", safe)
		}
		m, err := NewShared(p, PredecodeWith(p, PredecodeOptions{AuditHooks: true}),
			Config{Protect: backend.CPI, DEP: true, AuditSensitive: true})
		if err != nil {
			t.Fatal(err)
		}
		if r := m.Run("main"); r.Trap != tc.want {
			t.Errorf("ProtSafeIntr stripped=%v: trap %v (%v), want %v", tc.strip, r.Trap, r.Err, tc.want)
		}
	}
}

// TestAuditNeedsAuditHooks: code predecoded without AuditHooks runs plain
// accesses past every audit check, so NewShared must refuse to audit it.
func TestAuditNeedsAuditHooks(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	cfg := Config{Protect: backend.CPI, AuditSensitive: true}
	if _, err := NewShared(p, Predecode(p), cfg); err == nil || !strings.Contains(err.Error(), "AuditHooks") {
		t.Errorf("NewShared with AuditSensitive on unaudited code: err = %v, want one naming AuditHooks", err)
	}
	if _, err := NewShared(p, PredecodeWith(p, PredecodeOptions{AuditHooks: true}), cfg); err != nil {
		t.Errorf("NewShared on AuditHooks code: %v", err)
	}
	if _, err := New(p, cfg); err != nil {
		t.Errorf("New with AuditSensitive: %v", err)
	}
}
