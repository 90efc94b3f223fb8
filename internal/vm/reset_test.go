package vm

import (
	"reflect"
	"testing"

	"repro/internal/backend"
)

// TestResetCoversAllFields walks Machine's fields by reflection and fails
// on any field without an entry in resetRules. It makes the pooled-serving
// invariant structural: a Machine field cannot be added without deciding —
// in code review, in one place — whether Reset must clear, reseed,
// recompute or keep it. Stale-state-across-reuse is exactly the bug class
// this excludes.
func TestResetCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(Machine{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := resetRules[name]; !ok {
			t.Errorf("Machine.%s has no reset rule: add it to resetRules in reset.go and make Reset handle it", name)
		}
	}
	// And no rules for fields that no longer exist (a rename must rename
	// its rule, not orphan it).
	for name := range resetRules {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("resetRules names %q, which is not a Machine field", name)
		}
	}
}

// TestResetEquivalentToFresh: on a program exercising the heap, setjmp,
// indirect calls and output, a reset machine's second run must reproduce a
// fresh machine's run exactly, under every enforcer and none. The
// cross-workload × protection matrix version lives in the root serving
// suite; this is the in-package check.
func TestResetEquivalentToFresh(t *testing.T) {
	src := `
	int env[8];
	int n;
	int apply(int (*f)(int), int x) { return f(x); }
	int twice(int x) { return x * 2; }
	int main(void) {
		char *p = (char *)malloc(64);
		p[0] = 'a';
		if (setjmp(env) == 0) {
			n = apply(twice, 21);
			longjmp(env, 1);
		}
		char c = p[0];
		free(p);
		char *q = (char *)malloc(64);
		q[1] = 'b';
		printf("n=%d %c%c\n", n, c, q[1]);
		free(q);
		return n;
	}`
	if _, err := New(compile(t, src), Config{Protect: backend.PAC + 1}); err == nil {
		t.Error("New with an out-of-range Protect succeeded")
	}
	for _, cfg := range []Config{
		{DEP: true},
		{Protect: backend.CPS, DEP: true, ASLR: true, PIE: true, Seed: 7},
		{Protect: backend.CPI, DEP: true, TemporalSafety: true},
		{Protect: backend.SoftBound, DEP: true},
		{Protect: backend.SafeStack, DEP: true},
		{Protect: backend.CFI, DEP: true},
	} {
		prog := compile(t, src)
		code := Predecode(prog)
		fresh, err := NewShared(prog, code, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Run("main")
		// Machines without an enforcer report no safe pointer store
		// footprint (TestProtectionMechanisms pins which ones those are).
		if fresh.enf == nil && want.Mem.SPSBytes != 0 {
			t.Errorf("cfg %+v: SPSBytes %d without an enforcer", cfg, want.Mem.SPSBytes)
		}

		m, err := NewShared(prog, code, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Run("main")
		if err := m.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		got := m.Run("main")

		if got.Cycles != want.Cycles || got.Steps != want.Steps ||
			got.Output != want.Output || got.Trap != want.Trap ||
			got.ExitCode != want.ExitCode || got.Mem != want.Mem {
			t.Errorf("cfg %+v: reset run diverged from fresh run:\nfresh: %+v\nreset: %+v",
				cfg, want, got)
		}
	}
}

// TestLayoutRanges: every bundled workload's machine, under each of the
// four benchmarked protections, holds its layout as a handful of permission
// ranges — code, rodata, globals, heap and stack in the regular region, the
// safe stack in the safe one — after NewShared and again after Reset. A
// loader or malloc that went back to one permission entry per page would
// hold thousands.
func TestLayoutRanges(t *testing.T) {
	for name, src := range workloadSources() {
		for _, prot := range benchedProtections {
			m, err := New(compileProtected(t, src, prot), Config{Protect: prot, DEP: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, prot, err)
			}
			for _, when := range []string{"NewShared", "Reset"} {
				if when == "Reset" {
					if err := m.Reset(); err != nil {
						t.Fatalf("%s/%v: Reset: %v", name, prot, err)
					}
				}
				if n, s := m.mem.Ranges(), m.safe.Ranges(); n > 5 || s > 1 {
					t.Errorf("%s/%v after %s: %d regular and %d safe ranges, want at most 5 and 1", name, prot, when, n, s)
				}
			}
		}
	}
}
