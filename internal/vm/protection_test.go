package vm

import (
	"testing"

	"repro/internal/instrument"
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
	instrument.CPI(p)
	m, err := New(p, Config{SafeStack: true, Backend: "cpi", DEP: true})
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
	m, err := New(p, Config{SafeStack: true})
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
