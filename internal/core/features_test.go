package core

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

// This file tests the paper's secondary mechanisms: sensitive-data
// annotation (§3.2.1), the debug dual-store mode (§3.2.2), temporal safety
// (§4 extension), setjmp protection, FORTIFY, and the MPX cost ablation.

// ucredSrc models the §3.2.1 example: process credentials that an attacker
// wants to overwrite (a data-only attack, normally out of scope for CPI —
// unless the type is annotated).
const ucredSrc = `
struct ucred { int uid; int gid; };
struct ucred cred = { 1000, 1000 };
void attack_point(void) {}
int main(void) {
	cred.uid = 1000;
	attack_point();
	if (cred.uid == 0) {
		puts("ROOT");
		return 0;
	}
	puts("user");
	return 1;
}
`

func ucredAttack(t *testing.T, cfg Config) string {
	t.Helper()
	p := compileT(t, ucredSrc, cfg)
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	m.SetHook("attack_point", func(mm *vm.Machine) {
		atk := mm.Attacker(true)
		addr, _ := atk.GlobalAddr("cred")
		atk.WriteWord(addr, 0) // uid = 0: become root
	})
	r := m.Run("main")
	return r.Output
}

func TestDataAttackOutOfScopeByDefault(t *testing.T) {
	// Plain CPI does not protect non-pointer data (§2: data-only attacks
	// are out of scope).
	out := ucredAttack(t, Config{Protect: CPI, DEP: true})
	if !strings.Contains(out, "ROOT") {
		t.Fatalf("unannotated data attack should succeed, got %q", out)
	}
}

func TestAnnotatedSensitiveDataProtected(t *testing.T) {
	// With struct ucred annotated, the uid lives in the safe store and the
	// attacker's regular-memory write is inert (§3.2.1).
	out := ucredAttack(t, Config{Protect: CPI, DEP: true,
		SensitiveStructs: []string{"ucred"}})
	if strings.Contains(out, "ROOT") {
		t.Fatalf("annotated ucred still corrupted: %q", out)
	}
	if !strings.Contains(out, "user") {
		t.Fatalf("program misbehaved: %q", out)
	}
}

func TestAnnotatedDataHonestSemantics(t *testing.T) {
	// Annotation must not change honest behaviour.
	src := `
struct ucred { int uid; int gid; };
struct ucred cred = { 42, 7 };
int setuid_checked(int u) { cred.uid = u; return cred.uid; }
int main(void) {
	int a = cred.uid + cred.gid;
	int b = setuid_checked(100);
	return a + b + cred.uid;
}
`
	want := runT(t, src, Config{Protect: CPI, DEP: true}).ExitCode
	got := runT(t, src, Config{Protect: CPI, DEP: true,
		SensitiveStructs: []string{"ucred"}}).ExitCode
	if want != got {
		t.Fatalf("annotation changed semantics: %d vs %d", want, got)
	}
	if want != 42+7+100+100 {
		t.Fatalf("exit = %d", want)
	}
}

// --- debug dual-store mode (§3.2.2) ---------------------------------------

func TestDebugDualStoreDetectsCorruption(t *testing.T) {
	// In debug mode a corrupted regular copy is *detected* at load instead
	// of silently ignored.
	p := compileT(t, vtableSrc, Config{Protect: CPI, DebugDualStore: true, DEP: true})
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	m.SetHook("attack_point", func(mm *vm.Machine) {
		atk := mm.Attacker(true)
		dogvt, _ := atk.GlobalAddr("dog_vt")
		atk.WriteWord(atk.HeapAddr()+16, dogvt)
	})
	r := m.Run("main")
	if r.Trap != vm.TrapCPIViolation {
		t.Fatalf("debug mode: trap = %v (%v), want CPI violation", r.Trap, r.Err)
	}
}

func TestDebugDualStoreHonestProgramsPass(t *testing.T) {
	r := runT(t, vtableSrc, Config{Protect: CPI, DebugDualStore: true, DEP: true})
	if r.Trap != vm.TrapExit || r.Output != "meow\n" {
		t.Fatalf("honest run under debug mode: %v %q", r.Trap, r.Output)
	}
}

// --- temporal safety (§4 extension) ---------------------------------------

const uafSrc = `
struct obj { void (*fn)(void); int pad; };
void good(void) { puts("good"); }
void evil(void) { puts("EVIL"); }
int main(void) {
	struct obj *o = (struct obj *)malloc(sizeof(struct obj));
	o->fn = good;
	free(o);
	// Reallocate: same size class, so the allocator reuses the chunk.
	int *spray = (int *)malloc(sizeof(struct obj));
	spray[0] = (int)evil; // heap spray over the stale fn slot
	o->fn();              // use after free
	free(spray);
	return 0;
}
`

func TestUseAfterFreeDefaultLevee(t *testing.T) {
	// The Levee prototype is spatial-only (§4 Limitations): the UAF store
	// of a forged value lands in the regular region only (it has no code
	// provenance), so CPI still prevents the hijack — but by provenance,
	// not by a temporal check.
	r := runT(t, uafSrc, Config{Protect: CPI, DEP: true})
	if strings.Contains(r.Output, "EVIL") || r.Trap == vm.TrapHijacked {
		t.Fatalf("CPI: UAF hijack succeeded: %v %q", r.Trap, r.Output)
	}
}

func TestUseAfterFreeVanillaSucceeds(t *testing.T) {
	r := runT(t, uafSrc, Config{DEP: true})
	if !strings.Contains(r.Output, "EVIL") && r.Trap != vm.TrapHijacked {
		t.Fatalf("vanilla UAF should hijack: %v %q", r.Trap, r.Output)
	}
}

func TestTemporalSafetyCatchesStaleDeref(t *testing.T) {
	// With the CETS-style extension on, a *data* use-after-free through a
	// sensitive pointer is detected as a temporal violation.
	// The temporal id is checked on dereferences of sensitive types
	// (Appendix A's rules guard sensitive accesses; an int read through a
	// stale pointer is a data issue, out of CPI's scope even temporally).
	// free() invalidates the safe-pointer-store entries of the released
	// region, so the reused slot must be legitimately re-populated before
	// the stale dereference: spatially everything is valid again, and only
	// the temporal id distinguishes the stale pointer from the fresh one.
	src := `
struct holder { struct holder *next; void (*fn)(void); int v; };
void f(void) { puts("f"); }
int main(void) {
	struct holder *h = (struct holder *)malloc(sizeof(struct holder));
	h->fn = f;
	h->v = 5;
	struct holder *stale = h;
	free(h);
	struct holder *h2 = (struct holder *)malloc(sizeof(struct holder)); // reuse
	h2->fn = f; // fresh allocation legitimately re-populates the slot
	void (*g)(void) = stale->fn; // temporal violation: stale sensitive deref
	g();
	return 0;
}
`
	r := runT(t, src, Config{Protect: CPI, TemporalSafety: true, DEP: true})
	if r.Trap != vm.TrapCPIViolation {
		t.Fatalf("temporal: trap = %v (%v), want CPI violation", r.Trap, r.Err)
	}
	// And without the extension (the Levee default), the stale read sees the
	// spatially valid fresh entry and runs.
	r2 := runT(t, src, Config{Protect: CPI, DEP: true})
	if r2.Trap != vm.TrapExit {
		t.Fatalf("spatial-only: trap = %v (%v)", r2.Trap, r2.Err)
	}
}

func TestFreeInvalidatesDanglingEntries(t *testing.T) {
	// Regression for the free()-time bulk invalidation: a sensitive pointer
	// stored into a heap object must not keep validating through a dangling
	// pointer after the object is freed and its address reused. Before the
	// fix, the safe-pointer-store entry survived the free, so the stale
	// load returned the old (valid, code-provenance) value and the call
	// went through — a dangling entry laundered into a live one.
	src := `
struct holder { void (*fn)(void); };
void f(void) { puts("f ran"); }
int main(void) {
	struct holder *h = (struct holder *)malloc(sizeof(struct holder));
	h->fn = f;
	struct holder *stale = h;
	free(h);
	struct holder *h2 = (struct holder *)malloc(sizeof(struct holder)); // same size: address reused
	void (*g)(void) = stale->fn; // dangling: the entry must NOT validate
	g();
	return (int)(h2 == 0);
}
`
	r := runT(t, src, Config{Protect: CPI, DEP: true})
	if r.Trap != vm.TrapCPIViolation {
		t.Fatalf("dangling entry under cpi: trap = %v (%v), want CPI violation", r.Trap, r.Err)
	}
	if strings.Contains(r.Output, "f ran") {
		t.Fatal("dangling entry under cpi: stale code pointer was called")
	}
}

// temporalPrelude frees b while a->next still points at it, so the entry
// at &a->next keeps b's address and id. Each probe calls through a
// code pointer reached via a freed object; a node's first field is its
// code pointer, so an object recycled at b's address (c, y) puts h where
// the stale pointer looks.
const temporalPrelude = `
struct node { void (*fn)(void); struct node *next; };
void f(void) { puts("f"); }
void h(void) { puts("h"); }
int main(void) {
	struct node *a = (struct node *)malloc(sizeof(struct node));
	struct node *b = (struct node *)malloc(sizeof(struct node));
	a->fn = f;
	b->fn = f;
	a->next = b;
	free(b);
`

// recycleB reallocates b's address as c.
const recycleB = "\tstruct node *c = (struct node *)malloc(sizeof(struct node));\n\tc->fn = h;\n"

// temporalProbes are the four temporal-reuse attacks of the table.
var temporalProbes = []struct{ name, src string }{
	{"recycled target", temporalPrelude + recycleB + "\ta->next->fn();\n\treturn 0;\n}\n"},
	{"freed target", temporalPrelude + "\ta->next->fn();\n\treturn 0;\n}\n"},
	{"recycled target, 10 mallocs", temporalPrelude + recycleB +
		"\tfor (int i = 0; i < 10; i++)\n\t\tmalloc(64);\n\ta->next->fn();\n\treturn 0;\n}\n"},
	// The stale pointer is a local, held outside the safe pointer store.
	{"stale local pointer", temporalPrelude + `	struct node *x = (struct node *)malloc(sizeof(struct node));
	x->fn = f;
	struct node *stale = x;
	free(x);
	struct node *y = (struct node *)malloc(sizeof(struct node));
	y->fn = h;
	stale->fn();
	return 0;
}
`},
}

// temporalColumns are the configurations of the temporal-reuse table.
var temporalColumns = []struct {
	name string
	cfg  Config
}{
	{"cps", Config{Protect: CPS, DEP: true}},
	{"cpi", Config{Protect: CPI, DEP: true}},
	{"cpi+ids", Config{Protect: CPI, DEP: true, TemporalSafety: true}},
	{"pac", Config{Protect: PAC, DEP: true}},
}

// TestTemporalReuseTable pins what each temporal mechanism stops. cps and
// cpi rely on free()-time invalidation alone, which drops the entries
// inside the freed object: it stops a call through the freed object's own
// slot, but not through one that a recycled object has refilled. The CETS
// id check (cpi+ids) traps every probe, including the stale pointer held
// in a local. pac invalidates nothing on free, so even the freed object's
// old signed word authenticates (the gap a per-object tag would close).
func TestTemporalReuseTable(t *testing.T) {
	type outcome struct {
		trap vm.TrapKind
		out  string
	}
	exitH, cpiViol := outcome{vm.TrapExit, "h\n"}, outcome{vm.TrapCPIViolation, ""}
	want := [][]outcome{ // [probe][column]
		{exitH, exitH, cpiViol, exitH},
		{{vm.TrapCPSViolation, ""}, cpiViol, cpiViol, {vm.TrapExit, "f\n"}},
		{exitH, exitH, cpiViol, exitH},
		{exitH, exitH, cpiViol, exitH},
	}
	for pi, p := range temporalProbes {
		for ci, c := range temporalColumns {
			r := runT(t, p.src, c.cfg)
			if got := (outcome{r.Trap, r.Output}); got != want[pi][ci] {
				t.Errorf("%s under %s: got %+v (%v), want %+v", p.name, c.name, got, r.Err, want[pi][ci])
			}
		}
	}
}

// --- longjmp protection ----------------------------------------------------

func TestLongjmpBufferProtected(t *testing.T) {
	src := `
int jb[8];
void shell(void) { puts("PWNED"); }
void attack_point(void) {}
int main(void) {
	if (setjmp(jb)) { puts("resumed"); return 0; }
	attack_point();
	longjmp(jb, 1);
	return 1;
}
`
	for _, tc := range []struct {
		cfg     Config
		wantPwn bool
	}{
		{Config{}, true},
		{Config{Protect: CPS, DEP: true}, false},
		{Config{Protect: CPI, DEP: true}, false},
		{Config{PtrMangle: true}, false}, // glibc-style mangling also stops it
	} {
		p := compileT(t, src, tc.cfg)
		m, err := p.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		m.SetHook("attack_point", func(mm *vm.Machine) {
			atk := mm.Attacker(true)
			shell, _ := atk.FuncAddr("shell")
			slot, _ := atk.GlobalAddr("jb")
			atk.WriteWord(slot, shell)
		})
		r := m.Run("main")
		got := pwnedResult(r)
		if got != tc.wantPwn {
			t.Errorf("cfg %+v: pwned=%v (trap %v, out %q), want %v",
				tc.cfg.Protect, got, r.Trap, r.Output, tc.wantPwn)
		}
	}
}

// --- FORTIFY ----------------------------------------------------------------

func TestFortifyCatchesKnownSizeOverflow(t *testing.T) {
	src := `
int main(void) {
	char small[16];
	char big[64];
	memset(big, 65, 48);
	big[48] = 0;
	strcpy(small, big); // 49 bytes into 16: __strcpy_chk aborts
	return small[0];
}
`
	r := runT(t, src, Config{Fortify: true})
	if r.Trap != vm.TrapFortify {
		t.Fatalf("fortify: trap = %v (%v)", r.Trap, r.Err)
	}
	// Without FORTIFY the overflow proceeds (and trashes the frame).
	r2 := runT(t, src, Config{})
	if r2.Trap == vm.TrapFortify {
		t.Fatal("fortify trap without fortify enabled")
	}
}

func TestFortifyAllowsExactFit(t *testing.T) {
	src := `
int main(void) {
	char buf[8];
	strcpy(buf, "1234567"); // 7 chars + NUL: exactly fits
	return strlen(buf);
}
`
	r := runT(t, src, Config{Fortify: true})
	if r.Trap != vm.TrapExit || r.ExitCode != 7 {
		t.Fatalf("exact fit rejected: %v (%v)", r.Trap, r.Err)
	}
}

// --- MPX ablation ------------------------------------------------------------

func TestMPXReducesCheckCost(t *testing.T) {
	src := `
struct vt { int (*op)(int); };
int f(int x) { return x + 1; }
struct vt v = { f };
int main(void) {
	struct vt *p = &v;
	int acc = 0;
	for (int i = 0; i < 2000; i++) acc += p->op(acc) & 7;
	return acc & 0xff;
}
`
	soft := vm.DefaultCosts()
	hard := vm.DefaultCosts()
	hard.CPICheck = 1 // hardware-assisted (MPX-style) checks
	rs := runT(t, src, Config{Protect: CPI, DEP: true, Cost: soft})
	rh := runT(t, src, Config{Protect: CPI, DEP: true, Cost: hard})
	if rh.Cycles >= rs.Cycles {
		t.Errorf("MPX-assisted checks should be cheaper: %d vs %d", rh.Cycles, rs.Cycles)
	}
	if rh.ExitCode != rs.ExitCode {
		t.Error("cost model changed semantics")
	}
}

// --- isolation modes end-to-end ---------------------------------------------

func TestAllIsolationModesPreserveSemantics(t *testing.T) {
	for _, iso := range []vm.IsolationMode{vm.IsoSegment, vm.IsoInfoHide, vm.IsoSFI} {
		r := runT(t, vtableSrc, Config{Protect: CPI, DEP: true, Isolation: iso})
		if r.Trap != vm.TrapExit || r.Output != "meow\n" {
			t.Errorf("isolation %v: %v %q", iso, r.Trap, r.Output)
		}
	}
}
