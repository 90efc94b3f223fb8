package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/vm"
)

// This file validates the paper's central security claims on concrete
// attack programs:
//
//   - §5.1/§3.2.4: return-address smashing succeeds vanilla, is detected by
//     stack cookies (continuous overflows only), and is structurally
//     impossible under SafeStack/CPS/CPI;
//   - §3.2.2: function-pointer corruption succeeds vanilla (and bypasses
//     DEP via ret2libc-style targets), is stopped by CPS and CPI;
//   - §3.3: pointer-to-code-pointer (vtable) redirection to legitimate code
//     is possible under CPS but not CPI; raw injected values are stopped by
//     both;
//   - §6/[19,15,9]: coarse CFI admits redirection to valid targets;
//   - §3.2.3: the safe region is leak-proof and unguessable.

func compileT(t *testing.T, src string, cfg Config) *Program {
	t.Helper()
	p, err := Compile(src, cfg)
	if err != nil {
		t.Fatalf("compile (%v): %v", cfg.Protect, err)
	}
	return p
}

func runT(t *testing.T, src string, cfg Config) *vm.Result {
	t.Helper()
	p := compileT(t, src, cfg)
	r, err := p.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

// le64 renders an address as 8 little-endian bytes for overflow payloads.
func le64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// --- return address smashing -------------------------------------------

// retSmashSrc overflows a stack buffer with attacker input via strcpy: the
// canonical stack smash. The payload places a target address where the
// saved return address lives.
const retSmashSrc = `
void shell(void) { puts("PWNED"); }
void vulnerable(char *s) {
	char buf[24];
	strcpy(buf, s); // classic unbounded copy
}
int main(void) {
	char staging[256];
	read_input(staging, 256);
	vulnerable(staging);
	puts("survived");
	return 0;
}
`

// retSmashInput fills the 8-byte parameter slot + 24-byte buffer distance
// from buf to the return-address slot, then the target's low four bytes
// (the machine's code addresses are NUL-free in their low four bytes and
// zero above, so a string copy can carry them, as in RIPE).
func retSmashInput(target uint64) []byte {
	pad := make([]byte, 24)
	for i := range pad {
		pad[i] = 'A'
	}
	return append(pad, le64(target)[:4]...)
}

// pwnedResult reports whether the attack achieved arbitrary code execution:
// either the machine flagged a diverted control transfer, or the payload
// function actually ran.
func pwnedResult(r *vm.Result) bool {
	return r.Trap == vm.TrapHijacked || strings.Contains(r.Output, "PWNED")
}

func TestRetSmashVanilla(t *testing.T) {
	// Find the shell address first (no ASLR: layout is deterministic).
	p := compileT(t, retSmashSrc, Config{})
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	shell, ok := m.FuncAddr("shell")
	if !ok {
		t.Fatal("no shell fn")
	}

	r, err := p.RunWithInput(retSmashInput(shell))
	if err != nil {
		t.Fatal(err)
	}
	if r.Trap != vm.TrapHijacked {
		t.Fatalf("vanilla ret smash: trap = %v (%v), want hijack", r.Trap, r.Err)
	}
	if r.HijackTarget != shell {
		t.Fatalf("hijack target %#x, want shell %#x", r.HijackTarget, shell)
	}
	if r.HijackVia != vm.ViaReturn {
		t.Fatalf("via = %v", r.HijackVia)
	}
}

// retSmashAttempt runs the same attack under cfg and returns the trap.
func retSmashAttempt(t *testing.T, cfg Config) vm.TrapKind {
	t.Helper()
	p := compileT(t, retSmashSrc, cfg)
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	shell, _ := m.FuncAddr("shell")
	r, err := p.RunWithInput(retSmashInput(shell))
	if err != nil {
		t.Fatal(err)
	}
	return r.Trap
}

func TestRetSmashCookiesDetected(t *testing.T) {
	trap := retSmashAttempt(t, Config{StackCookies: true})
	if trap != vm.TrapStackSmash {
		t.Fatalf("cookies: trap = %v, want stack-smash detection", trap)
	}
}

func TestRetSmashSafeStackImmune(t *testing.T) {
	// Under SafeStack the buffer lives on the unsafe stack while the
	// return address is in the safe region: the overflow trashes unsafe
	// data only and the program either survives or crashes — it is never
	// hijacked.
	trap := retSmashAttempt(t, Config{Protect: SafeStack})
	if trap == vm.TrapHijacked || trap == vm.TrapStackSmash {
		t.Fatalf("safestack: trap = %v, want no hijack", trap)
	}
}

func TestRetSmashCPSAndCPIImmune(t *testing.T) {
	for _, prot := range []Protection{CPS, CPI} {
		trap := retSmashAttempt(t, Config{Protect: prot})
		if trap == vm.TrapHijacked {
			t.Fatalf("%v: ret smash succeeded", prot)
		}
	}
}

// --- function pointer corruption ----------------------------------------

// fptrSrc has a struct holding a buffer adjacent to a function pointer on
// the heap: overflowing the buffer rewrites the pointer (RIPE
// "funcptrheap"-style).
const fptrSrc = `
struct handler {
	char name[16];
	void (*fn)(void);
};
void good(void) { puts("good"); }
void shell(void) { puts("PWNED"); }
int main(void) {
	struct handler *h = (struct handler *)malloc(sizeof(struct handler));
	h->fn = good;
	char staging[64];
	read_input(staging, 64);
	strcpy(h->name, staging); // overflows into h->fn
	h->fn();
	puts("done");
	return 0;
}
`

func fptrAttempt(t *testing.T, cfg Config, target func(*vm.Machine) uint64) *vm.Result {
	t.Helper()
	p := compileT(t, fptrSrc, cfg)
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	addr := target(m)
	pad := make([]byte, 16)
	for i := range pad {
		pad[i] = 'A'
	}
	in := append(pad, le64(addr)[:4]...)
	r, err := p.RunWithInput(in)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func shellAddr(m *vm.Machine) uint64 {
	a, _ := m.FuncAddr("shell")
	return a
}

func TestFptrSmashVanilla(t *testing.T) {
	r := fptrAttempt(t, Config{}, shellAddr)
	if !pwnedResult(r) {
		t.Fatalf("vanilla fptr: %v, output %q (%v)", r.Trap, r.Output, r.Err)
	}
}

func TestFptrSmashDEPDoesNotHelp(t *testing.T) {
	// DEP stops injected shellcode but not redirection to existing code
	// (return-to-libc / ROP, §1).
	r := fptrAttempt(t, Config{DEP: true}, shellAddr)
	if !pwnedResult(r) {
		t.Fatalf("DEP vs code-reuse: %v, output %q", r.Trap, r.Output)
	}
}

func TestFptrShellcodeStoppedByDEPOnly(t *testing.T) {
	// Redirect to injected "shellcode" in a writable global.
	shellcodeTarget := func(m *vm.Machine) uint64 {
		a, _ := m.GlobalAddr("payload")
		return a
	}
	src := `
char payload[64]; // attacker-controlled buffer standing in for shellcode
struct handler { char name[16]; void (*fn)(void); };
void good(void) {}
int main(void) {
	struct handler h;
	h.fn = good;
	char staging[64];
	read_input(staging, 64);
	strcpy(h.name, staging);
	h.fn();
	return 0;
}
`
	for _, c := range []struct {
		dep  bool
		want vm.TrapKind
	}{
		{false, vm.TrapHijacked}, // W^X off: data is executable
		{true, vm.TrapNXFault},   // DEP blocks the shellcode
	} {
		p := compileT(t, src, Config{DEP: c.dep})
		m, _ := p.NewMachine()
		addr := shellcodeTarget(m)
		pad := make([]byte, 16)
		for i := range pad {
			pad[i] = 'A'
		}
		r, err := p.RunWithInput(append(pad, le64(addr)[:4]...))
		if err != nil {
			t.Fatal(err)
		}
		if r.Trap != c.want {
			t.Fatalf("DEP=%v: trap = %v (%v), want %v", c.dep, r.Trap, r.Err, c.want)
		}
	}
}

func TestFptrSmashCPSStops(t *testing.T) {
	r := fptrAttempt(t, Config{Protect: CPS}, shellAddr)
	if pwnedResult(r) {
		t.Fatalf("CPS: fptr attack succeeded (%v, %q)", r.Trap, r.Output)
	}
	// Default mode silently prevents: the load ignores the corrupted
	// regular copy, so the program should run good() and exit cleanly.
	if r.Trap != vm.TrapExit {
		t.Logf("note: CPS stopped attack with %v (%v)", r.Trap, r.Err)
	}
}

func TestFptrSmashCPIStops(t *testing.T) {
	r := fptrAttempt(t, Config{Protect: CPI}, shellAddr)
	if pwnedResult(r) {
		t.Fatalf("CPI: fptr attack succeeded (%v, %q)", r.Trap, r.Output)
	}
}

func TestFptrSmashCFIAdmitsValidTargets(t *testing.T) {
	// shell() is a defined function: coarse CFI's merged target set admits
	// it — the [19,15,9] observation.
	r := fptrAttempt(t, Config{Protect: CFI}, shellAddr)
	if !pwnedResult(r) {
		t.Fatalf("CFI valid-target redirect: %v, output %q", r.Trap, r.Output)
	}
	// But a gadget-style target (mid-function) is rejected.
	gadget := func(m *vm.Machine) uint64 {
		a, _ := m.FuncAddr("good")
		return a + 8
	}
	r = fptrAttempt(t, Config{Protect: CFI}, gadget)
	if r.Trap != vm.TrapCFIViolation {
		t.Fatalf("CFI gadget: trap = %v, want CFI violation", r.Trap)
	}
	// Vanilla would have taken the gadget.
	r = fptrAttempt(t, Config{}, gadget)
	if r.Trap != vm.TrapHijacked {
		t.Fatalf("vanilla gadget: trap = %v, want hijacked", r.Trap)
	}
}

// --- vtable-pointer redirection: the CPS/CPI gap (§3.3) ------------------

// vtableSrc models two objects with distinct vtables. The attacker corrupts
// an object's vtable POINTER (a pointer to code pointers — protected by
// CPI, not by CPS).
const vtableSrc = `
struct vtable { void (*speak)(void); };
struct obj { char tag[16]; struct vtable *vt; };
void meow(void) { puts("meow"); }
void bark(void) { puts("bark"); }
struct vtable cat_vt = { meow };
struct vtable dog_vt = { bark };
void attack_point(void) {}
int main(void) {
	struct obj *cat = (struct obj *)malloc(sizeof(struct obj));
	cat->vt = &cat_vt;
	attack_point();
	cat->vt->speak();
	return 0;
}
`

func vtableRedirect(t *testing.T, cfg Config) *vm.Result {
	t.Helper()
	p := compileT(t, vtableSrc, cfg)
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	m.SetHook("attack_point", func(mm *vm.Machine) {
		atk := mm.Attacker(true)
		// The first heap object is cat; vt sits at offset 16.
		dogvt, _ := atk.GlobalAddr("dog_vt")
		atk.WriteWord(atk.HeapAddr()+16, dogvt)
	})
	r := m.Run("main")
	return r
}

func TestVtableRedirectVanilla(t *testing.T) {
	r := vtableRedirect(t, Config{})
	if r.Trap != vm.TrapExit || r.Output != "bark\n" {
		t.Fatalf("vanilla vtable redirect: %v, output %q", r.Trap, r.Output)
	}
}

func TestVtableRedirectCPSAllowsLegitimateSwap(t *testing.T) {
	// CPS leaves the vtable pointer unprotected; the redirected-to vtable
	// holds a legitimately stored code pointer, so the wrong-but-valid
	// function runs ("the attacker could at most execute an opcode that
	// exists in the running Perl program", §3.3).
	r := vtableRedirect(t, Config{Protect: CPS})
	if r.Trap != vm.TrapExit || r.Output != "bark\n" {
		t.Fatalf("CPS vtable swap: %v output %q, want bark", r.Trap, r.Output)
	}
}

func TestVtableRedirectCPIStops(t *testing.T) {
	// Under CPI the vtable pointer itself is sensitive: its protected copy
	// in the safe store is authoritative, so the corrupted regular copy is
	// ignored and meow runs.
	r := vtableRedirect(t, Config{Protect: CPI})
	if r.Trap == vm.TrapHijacked {
		t.Fatal("CPI: vtable redirect hijacked control")
	}
	if r.Output == "bark\n" {
		t.Fatalf("CPI: attacker-chosen virtual call ran (output %q)", r.Output)
	}
	if r.Trap == vm.TrapExit && r.Output != "meow\n" {
		t.Fatalf("CPI: unexpected output %q", r.Output)
	}
}

func TestVtableInjectedFakeStoppedByBoth(t *testing.T) {
	// Attacker instead points the vtable at a fake table with a raw
	// injected address. CPS must also stop this (guarantee (ii)).
	for _, prot := range []Protection{CPS, CPI} {
		p := compileT(t, vtableSrc, Config{Protect: prot})
		m, err := p.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		m.SetHook("attack_point", func(mm *vm.Machine) {
			atk := mm.Attacker(true)
			shell, _ := atk.FuncAddr("meow") // raw code addr planted in data
			fake := atk.HeapAddr() + 64      // unused heap area as fake vtable
			atk.WriteWord(fake, shell)
			atk.WriteWord(atk.HeapAddr()+16, fake)
		})
		r := m.Run("main")
		if r.Trap == vm.TrapHijacked {
			t.Fatalf("%v: fake vtable hijacked control", prot)
		}
		if prot == CPS && r.Trap == vm.TrapExit && r.Output != "meow\n" {
			t.Fatalf("CPS: fake vtable changed behaviour: %q", r.Output)
		}
	}
}

// --- ASLR ---------------------------------------------------------------

func TestASLRBlocksWithoutLeak(t *testing.T) {
	// Attack uses a guessed (non-leaked) address under ASLR: should miss.
	p := compileT(t, fptrSrc, Config{ASLR: true, Seed: 7})
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	atk := m.Attacker(false) // no leak
	guessed, _ := atk.FuncAddr("shell")
	real, _ := m.FuncAddr("shell")
	if guessed == real {
		t.Skip("lucky 1/4096 guess with this seed")
	}
	pad := make([]byte, 16)
	for i := range pad {
		pad[i] = 'A'
	}
	r, err := p.RunWithInput(append(pad, le64(guessed)[:4]...))
	if err != nil {
		t.Fatal(err)
	}
	if pwnedResult(r) && r.Output != "" {
		t.Fatalf("ASLR: blind guess pwned (%v, %q)", r.Trap, r.Output)
	}
}

func TestASLRBypassedWithLeak(t *testing.T) {
	p := compileT(t, fptrSrc, Config{ASLR: true, Seed: 7})
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	atk := m.Attacker(true) // info leak
	leaked, _ := atk.FuncAddr("shell")
	pad := make([]byte, 16)
	for i := range pad {
		pad[i] = 'A'
	}
	// New machine with the same seed has the same layout.
	r, err := p.RunWithInput(append(pad, le64(leaked)[:4]...))
	if err != nil {
		t.Fatal(err)
	}
	if !pwnedResult(r) {
		t.Fatalf("leak+ASLR: %v, output %q, want pwned", r.Trap, r.Output)
	}
}

// --- safe region isolation (§3.2.3) --------------------------------------

func TestSafeRegionLeakProof(t *testing.T) {
	// After running a CPI-protected pointer-heavy program, no word in
	// regular memory may point into the safe region.
	p := compileT(t, vtableSrc, Config{Protect: CPI})
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	m.SetHook("attack_point", func(mm *vm.Machine) {
		if mm.SafeRegionLeakable() {
			t.Error("pointer into safe region found in regular memory")
		}
	})
	r := m.Run("main")
	if r.Trap != vm.TrapExit {
		t.Fatalf("run: %v (%v)", r.Trap, r.Err)
	}
}

func TestSafeRegionGuessing(t *testing.T) {
	p := compileT(t, vtableSrc, Config{Protect: CPI, Isolation: vm.IsoInfoHide, Seed: 3})
	m, err := p.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	atk := m.Attacker(true)
	hit, crashed := atk.GuessSafeRegion(0x123456789000)
	if hit || !crashed {
		t.Fatalf("blind guess: hit=%v crashed=%v, want miss+crash", hit, crashed)
	}
	// Segment isolation: not addressable at all.
	p2 := compileT(t, vtableSrc, Config{Protect: CPI, Isolation: vm.IsoSegment})
	m2, _ := p2.NewMachine()
	hit, _ = m2.Attacker(true).GuessSafeRegion(0)
	if hit {
		t.Fatal("segment isolation must not be addressable")
	}
}

// --- honest programs remain correct under all protections ----------------

// TestCallocOverflowReturnsNull: calloc takes size_t operands, so a
// product past MaxInt64 (or a negative operand) is NULL with no
// allocation, under every protection; and under SoftBound a block from a
// calloc that fits still bounds its pointer.
func TestCallocOverflowReturnsNull(t *testing.T) {
	const src = `
int main(void) {
	if (calloc(4611686018427387904, 2) != 0) return 1;
	if (calloc(-1, 8) != 0) return 2;
	char *p = calloc(1, 16);
	p[15] = 1;
	return 0;
}`
	for _, prot := range []Protection{Vanilla, CPI, SoftBound} {
		if r := runT(t, src, Config{Protect: prot}); r.Trap != vm.TrapExit || r.ExitCode != 0 {
			t.Errorf("%v: trap %v exit %d (%v), want exit 0", prot, r.Trap, r.ExitCode, r.Err)
		}
	}
	r := runT(t, `
int main(void) {
	char *p = calloc(1, 16);
	p[4096] = 1;
	return 0;
}`, Config{Protect: SoftBound})
	if r.Trap != vm.TrapSBViolation {
		t.Errorf("softbound: p[4096] after calloc(1, 16): trap %v, want %v", r.Trap, vm.TrapSBViolation)
	}
}

func TestProtectionsPreserveSemantics(t *testing.T) {
	src := `
struct vt { int (*op)(int); };
int dbl(int x) { return x * 2; }
int inc(int x) { return x + 1; }
struct vt table[2] = { { dbl }, { inc } };
int jb[8];
int work(void) {
	char buf[32];
	sprintf(buf, "%d-%s", 42, "ok");
	int acc = strlen(buf);
	for (int i = 0; i < 8; i++) acc = table[i % 2].op(acc);
	int *heap = (int *)malloc(64);
	for (int i = 0; i < 8; i++) heap[i] = acc + i;
	acc = heap[7];
	free(heap);
	if (setjmp(jb) == 0) longjmp(jb, 5);
	void (*none)(void) = 0;
	if (acc < 0) none();
	return acc;
}
int main(void) {
	printf("result=%d\n", work());
	return 0;
}
`
	var want string
	for _, prot := range []Protection{Vanilla, SafeStack, CPS, CPI, SoftBound, CFI} {
		r := runT(t, src, Config{Protect: prot, DEP: true, StackCookies: prot == Vanilla})
		if r.Trap != vm.TrapExit {
			t.Fatalf("%v: trap %v (%v)\noutput: %s", prot, r.Trap, r.Err, r.Output)
		}
		if want == "" {
			want = r.Output
		} else if r.Output != want {
			t.Fatalf("%v: output %q differs from vanilla %q", prot, r.Output, want)
		}
	}
}

// --- overhead sanity: the Table 1 ordering --------------------------------

func TestOverheadOrdering(t *testing.T) {
	src := `
struct node { struct node *next; void (*visit)(int); int val; };
void sink(int x) {}
int main(void) {
	struct node *head = 0;
	for (int i = 0; i < 200; i++) {
		struct node *n = (struct node *)malloc(sizeof(struct node));
		n->next = head;
		n->visit = sink;
		n->val = i;
		head = n;
	}
	int sum = 0;
	for (int r = 0; r < 20; r++) {
		for (struct node *p = head; p; p = p->next) {
			p->visit(p->val);
			sum += p->val;
		}
	}
	return sum & 0xff;
}
`
	cycles := map[Protection]int64{}
	for _, prot := range []Protection{Vanilla, SafeStack, CPS, CPI, SoftBound} {
		r := runT(t, src, Config{Protect: prot, DEP: true})
		if r.Trap != vm.TrapExit {
			t.Fatalf("%v: %v (%v)", prot, r.Trap, r.Err)
		}
		cycles[prot] = r.Cycles
	}
	v := cycles[Vanilla]
	if !(cycles[SafeStack] <= cycles[CPS] && cycles[CPS] <= cycles[CPI] &&
		cycles[CPI] < cycles[SoftBound]) {
		t.Fatalf("ordering violated: vanilla=%d safestack=%d cps=%d cpi=%d sb=%d",
			v, cycles[SafeStack], cycles[CPS], cycles[CPI], cycles[SoftBound])
	}
	if float64(cycles[SoftBound]) < 1.2*float64(v) {
		t.Errorf("SoftBound should be far more expensive: %d vs %d", cycles[SoftBound], v)
	}
}
