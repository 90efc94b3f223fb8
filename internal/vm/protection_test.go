package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/instrument"
	"repro/internal/ir"
)

// Protection-mechanism unit tests at the machine level.

func TestCanaryDiffersPerSeed(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	m1, _ := New(p, Config{StackCookies: true, Seed: 1})
	m2, _ := New(p, Config{StackCookies: true, Seed: 2})
	if m1.canary == m2.canary {
		t.Error("canary must depend on the seed")
	}
	if m1.canary == 0 || m2.canary == 0 {
		t.Error("canary must never be zero")
	}
}

func TestPtrGuardDiffersPerSeed(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	m1, _ := New(p, Config{PtrMangle: true, Seed: 1})
	m2, _ := New(p, Config{PtrMangle: true, Seed: 2})
	if m1.ptrGuard == m2.ptrGuard {
		t.Error("pointer guard must depend on the seed")
	}
}

func TestPIEMovesCodeNonPIEDoesNot(t *testing.T) {
	p := compile(t, `void f(void) {} int main(void) { return 0; }`)
	m1, _ := New(p, Config{ASLR: true, Seed: 1})
	m2, _ := New(p, Config{ASLR: true, Seed: 2})
	a1, _ := m1.FuncAddr("f")
	a2, _ := m2.FuncAddr("f")
	if a1 != a2 {
		t.Error("non-PIE: code must stay at linked addresses under ASLR")
	}
	p1, _ := New(p, Config{ASLR: true, PIE: true, Seed: 1})
	p2, _ := New(p, Config{ASLR: true, PIE: true, Seed: 2})
	b1, _ := p1.FuncAddr("f")
	b2, _ := p2.FuncAddr("f")
	if b1 == b2 {
		t.Error("PIE: code must move under ASLR")
	}
}

func TestCodePagesNotWritable(t *testing.T) {
	// §2 threat model: attackers cannot modify the code segment.
	p := compile(t, `void f(void) {} int main(void) { return 0; }`)
	m, _ := New(p, Config{})
	atk := m.Attacker(true)
	fa, _ := m.FuncAddr("f")
	if atk.WriteWord(fa, 0x4141414141414141) {
		t.Fatal("attacker wrote to the code segment")
	}
	if _, ok := atk.ReadWord(fa); !ok {
		t.Error("code should be readable")
	}
}

func TestRodataNotWritable(t *testing.T) {
	p := compile(t, `char *s = "const"; int main(void) { return s[0]; }`)
	m, _ := New(p, Config{})
	r := m.Run("main")
	if r.Trap != TrapExit || r.ExitCode != 'c' {
		t.Fatalf("run: %v", r.Err)
	}
	// String literal pages are read-only.
	src := `int main(void) { char *s = "const"; s[0] = 'X'; return 0; }`
	r2 := run(t, src, Config{})
	if r2.Trap != TrapSegFault {
		t.Fatalf("write to rodata: trap = %v, want segfault", r2.Trap)
	}
}

func TestSafeRegionLeakProofOnProtectedWorkload(t *testing.T) {
	// The §3.2.3 leak-proofness invariant checked against a pointer-heavy
	// instrumented program: after running, no word anywhere in regular
	// memory points into the safe region.
	src := `
struct node { struct node *next; void (*f)(void); int v; };
void nop(void) {}
struct node *mk(struct node *next) {
	struct node *n = (struct node *)malloc(sizeof(struct node));
	n->next = next;
	n->f = nop;
	return n;
}
int main(void) {
	struct node *head = 0;
	for (int i = 0; i < 64; i++) head = mk(head);
	int c = 0;
	for (struct node *p = head; p; p = p->next) { p->f(); c++; }
	return c;
}`
	p := compile(t, src)
	instrument.SafeStack(p)
	instrument.WithBackend(p, backend.CPI.Backend(), instrument.Opts{})
	m, err := New(p, Config{Protect: backend.CPI, DEP: true})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run("main")
	if r.Trap != TrapExit || r.ExitCode != 64 {
		t.Fatalf("run: %v (%v)", r.Trap, r.Err)
	}
	if m.SafeRegionLeakable() {
		t.Fatal("a safe-region address leaked into regular memory")
	}
}

func TestAttackerCannotReachSafeStack(t *testing.T) {
	// Under SafeStack, the return-address slot is in the safe address
	// space; the attacker's write primitive cannot name it.
	src := `
void probe_point(void) {}
void vuln(void) { char buf[16]; buf[0] = 1; probe_point(); }
int main(void) { vuln(); return 0; }`
	p := compile(t, src)
	instrument.SafeStack(p)
	m, err := New(p, Config{Protect: backend.SafeStack})
	if err != nil {
		t.Fatal(err)
	}
	reached := false
	m.SetHook("probe_point", func(mm *Machine) {
		reached = true
		slot, safe, ok := mm.RetSlot("vuln")
		if !ok || !safe {
			t.Errorf("ret slot should be on the safe stack (ok=%v safe=%v)", ok, safe)
		}
		if mm.Attacker(true).WriteWord(slot, 0x41414141) {
			t.Error("attacker wrote into the safe address space")
		}
	})
	if r := m.Run("main"); r.Trap != TrapExit || !reached {
		t.Fatalf("run: %v reached=%v", r.Trap, reached)
	}
}

func TestVanillaRetSlotIsAttackable(t *testing.T) {
	// The same probe on the unprotected build: the slot is in regular
	// memory and writable — the §5.1 baseline in one assertion.
	src := `
void probe_point(void) {}
void vuln(void) { char buf[16]; buf[0] = 1; probe_point(); }
int main(void) { vuln(); return 0; }`
	p := compile(t, src)
	m, _ := New(p, Config{})
	m.SetHook("probe_point", func(mm *Machine) {
		slot, safe, ok := mm.RetSlot("vuln")
		if !ok || safe {
			t.Errorf("vanilla ret slot should be regular memory")
		}
		if !mm.Attacker(true).WriteWord(slot, 0xbad) {
			t.Error("vanilla ret slot must be writable by the attacker")
		}
	})
	r := m.Run("main")
	// The corrupted return address sends the machine somewhere invalid.
	if r.Trap == TrapExit {
		t.Fatal("corrupted return address went unnoticed")
	}
}

func TestSFIChargesStores(t *testing.T) {
	src := `
int arr[64];
int main(void) {
	for (int i = 0; i < 64; i++) arr[i] = i;
	int s = 0;
	for (int i = 0; i < 64; i++) s += arr[i];
	return s & 0xff;
}`
	p1 := compile(t, src)
	m1, _ := New(p1, Config{Isolation: IsoSegment})
	r1 := m1.Run("main")
	p2 := compile(t, src)
	m2, _ := New(p2, Config{Isolation: IsoSFI})
	r2 := m2.Run("main")
	if r2.Cycles <= r1.Cycles {
		t.Errorf("SFI must cost more: %d vs %d", r2.Cycles, r1.Cycles)
	}
	if r1.ExitCode != r2.ExitCode {
		t.Error("isolation mode changed semantics")
	}
}

// TestProtectionMechanisms pins the one protection selector's mapping onto
// the runtime mechanisms: for every Protection, the enforcer newEnforcer
// builds and the capabilities it fixes, safe stack and CFI included. An
// out-of-range protection or isolation mode is a construction error that
// names it.
func TestProtectionMechanisms(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	sr := func(active, check ir.Prot, trap TrapKind) enfCaps {
		return enfCaps{safeStack: true, active: active, check: check, transfers: true, trap: trap}
	}
	for _, tc := range []struct {
		prot backend.Protection
		enf  string // enforcer: "" (nil), "sr", "sr-code" (codeOnly) or "pac"
		caps enfCaps
	}{
		{backend.Vanilla, "", enfCaps{}},
		{backend.SafeStack, "", enfCaps{safeStack: true}},
		{backend.CPS, "sr-code", sr(ir.ProtCPS, 0, TrapCPSViolation)},
		{backend.CPI, "sr", sr(ir.ProtCPIStore|ir.ProtCPILoad, ir.ProtCPICheck, TrapCPIViolation)},
		{backend.SoftBound, "sr", enfCaps{active: ir.ProtSB, check: ir.ProtSBCheck, boundsGEP: true, trap: TrapSBViolation}},
		{backend.CFI, "", enfCaps{cfi: true}},
		{backend.PAC, "pac", sr(ir.ProtCPS, 0, TrapPacViolation)},
	} {
		m, err := New(p, Config{Protect: tc.prot})
		if err != nil {
			t.Fatalf("%v: %v", tc.prot, err)
		}
		enf := ""
		switch e := m.enf.(type) {
		case nil:
		case *srEnforcer:
			enf = "sr"
			if e.codeOnly {
				enf = "sr-code"
			}
		case *pacEnforcer:
			enf = "pac"
		default:
			t.Fatalf("%v: enforcer %T", tc.prot, e)
		}
		if enf != tc.enf || m.caps != tc.caps {
			t.Errorf("%v: enforcer %q caps %+v, want %q %+v", tc.prot, enf, m.caps, tc.enf, tc.caps)
		}
	}
	bad := backend.PAC + 1
	if _, err := New(p, Config{Protect: bad}); err == nil || !strings.Contains(err.Error(), bad.String()) {
		t.Errorf("New with Protect %v: error %v, want one naming it", bad, err)
	}
	badIso := IsoSFI + 1
	if _, err := New(p, Config{Isolation: badIso}); err == nil || !strings.Contains(err.Error(), "IsolationMode(3)") {
		t.Errorf("New with Isolation %v: error %v, want one naming it", badIso, err)
	}
	if got := HijackVia(9).String(); got != "HijackVia(9)" {
		t.Errorf("HijackVia(9) names itself %q", got)
	}
}

// TestSPSOrganisationByName pins newEnforcer's mapping of Config.SPS onto a
// safe pointer store organisation and the CostModel price its accesses are
// charged at. The empty name means the array.
func TestSPSOrganisationByName(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	c := DefaultCosts()
	for _, tc := range []struct {
		name  string
		store string
		price int64
	}{
		{"", "*sps.Array", c.SPSArray},
		{"array", "*sps.Array", c.SPSArray},
		{"twolevel", "*sps.TwoLevel", c.SPSTwoLevel},
		{"hash", "*sps.Hash", c.SPSHash},
	} {
		m, err := New(p, Config{Protect: backend.CPI, SPS: tc.name})
		if err != nil {
			t.Fatalf("SPS %q: %v", tc.name, err)
		}
		s := m.enf.(*srEnforcer)
		if got := fmt.Sprintf("%T", s.sps); got != tc.store || s.price != tc.price {
			t.Errorf("SPS %q: store %s at price %d, want %s at %d", tc.name, got, s.price, tc.store, tc.price)
		}
	}
}

// TestUnknownSPSOrganisation: an unknown store organisation is a
// construction error naming it under every protection that owns a safe
// pointer store, not a panic.
func TestUnknownSPSOrganisation(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	for _, prot := range []backend.Protection{backend.CPS, backend.CPI, backend.SoftBound} {
		m, err := NewShared(p, Predecode(p), Config{Protect: prot, SPS: "bogus"})
		if m != nil || err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%v: NewShared with SPS bogus = %v, %v; want an error naming it", prot, m, err)
		}
	}
}

// TestTemporalSafetyNeedsDereferenceChecks: the temporal id check runs in
// the dereference check, so TemporalSafety is a construction error naming
// the option and the protection wherever there is none, and is accepted
// under cpi and softbound.
func TestTemporalSafetyNeedsDereferenceChecks(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	code := Predecode(p)
	for _, prot := range []backend.Protection{backend.Vanilla, backend.SafeStack,
		backend.CFI, backend.CPS, backend.PAC} {
		m, err := NewShared(p, code, Config{Protect: prot, TemporalSafety: true})
		if m != nil || err == nil || !strings.Contains(err.Error(), "TemporalSafety") ||
			!strings.Contains(err.Error(), prot.String()) {
			t.Errorf("%v: NewShared with TemporalSafety = %v, %v; want an error naming both", prot, m, err)
		}
	}
	for _, prot := range []backend.Protection{backend.CPI, backend.SoftBound} {
		if _, err := NewShared(p, code, Config{Protect: prot, TemporalSafety: true}); err != nil {
			t.Errorf("%v: NewShared with TemporalSafety: %v", prot, err)
		}
	}
}
