package vm

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
)

// compile builds an uninstrumented (vanilla) program with the
// spill-everything lowering.
func compile(t testing.TB, src string) *ir.Program {
	t.Helper()
	return compileWith(t, src, irgen.Options{})
}

// compileWith builds an uninstrumented (vanilla) program per opts.
func compileWith(t testing.TB, src string, opts irgen.Options) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(f); err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := irgen.LowerWith(f, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// run executes main() under the given config.
func run(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	p := compile(t, src)
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	return m.Run("main")
}

// mustExit asserts a normal exit with the given code.
func mustExit(t *testing.T, src string, want int64) *Result {
	t.Helper()
	r := run(t, src, Config{})
	if r.Trap != TrapExit {
		t.Fatalf("trap = %v (%v), want exit\noutput: %s", r.Trap, r.Err, r.Output)
	}
	if r.ExitCode != want {
		t.Fatalf("exit = %d, want %d", r.ExitCode, want)
	}
	return r
}

func TestArithmetic(t *testing.T) {
	mustExit(t, `
int main(void) {
	int a = 6, b = 7;
	return a * b;
}`, 42)
}

func TestControlFlow(t *testing.T) {
	mustExit(t, `
int main(void) {
	int s = 0;
	for (int i = 1; i <= 10; i++) s += i;
	while (s > 55) s--;
	do { s++; } while (s < 57);
	if (s == 57) return s;
	return 0;
}`, 57)
}

func TestRecursion(t *testing.T) {
	mustExit(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main(void) { return fib(12); }`, 144)
}

func TestArraysAndPointers(t *testing.T) {
	mustExit(t, `
int sum(int *p, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += p[i];
	return s;
}
int main(void) {
	int a[5];
	for (int i = 0; i < 5; i++) a[i] = i * i;
	int *q = a + 1;
	*q = 100;
	return sum(a, 5);
}`, 0+100+4+9+16)
}

func TestStructs(t *testing.T) {
	mustExit(t, `
struct point { int x; int y; };
struct rect { struct point tl; struct point br; };
int area(struct rect *r) {
	return (r->br.x - r->tl.x) * (r->br.y - r->tl.y);
}
int main(void) {
	struct rect r;
	r.tl.x = 1; r.tl.y = 1;
	r.br.x = 5; r.br.y = 4;
	return area(&r);
}`, 12)
}

func TestGlobals(t *testing.T) {
	mustExit(t, `
int counter = 5;
int table[4] = { 10, 20, 30, 40 };
int bump(void) { counter += 1; return counter; }
int main(void) {
	bump(); bump();
	return counter + table[2];
}`, 7+30)
}

func TestFunctionPointers(t *testing.T) {
	mustExit(t, `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(int (*op)(int, int), int x, int y) { return op(x, y); }
int main(void) {
	int (*f)(int, int) = add;
	int r = apply(f, 2, 3);
	f = mul;
	r += apply(f, 4, 5);
	return r;
}`, 25)
}

func TestFunctionPointerTable(t *testing.T) {
	mustExit(t, `
int op_inc(int x) { return x + 1; }
int op_dbl(int x) { return x * 2; }
int op_neg(int x) { return -x; }
int (*ops[3])(int) = { op_inc, op_dbl, op_neg };
int main(void) {
	int prog[5];
	prog[0] = 0; prog[1] = 1; prog[2] = 1; prog[3] = 0; prog[4] = 1;
	int acc = 3;
	for (int i = 0; i < 5; i++) acc = ops[prog[i]](acc);
	return acc; // ((3+1)*2*2+1)*2 = 34
}`, 34)
}

func TestHeap(t *testing.T) {
	mustExit(t, `
int main(void) {
	int *p = (int *)malloc(10 * sizeof(int));
	for (int i = 0; i < 10; i++) p[i] = i;
	int s = 0;
	for (int i = 0; i < 10; i++) s += p[i];
	free(p);
	int *q = (int *)malloc(10 * sizeof(int)); // reuses the freed block
	int same = (q == p);
	free(q);
	return s + same;
}`, 46)
}

func TestStrings(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	char buf[32];
	strcpy(buf, "hello");
	strcat(buf, " world");
	printf("%s! %d\n", buf, strlen(buf));
	return strcmp(buf, "hello world") == 0;
}`, 1)
	if r.Output != "hello world! 11\n" {
		t.Errorf("output = %q", r.Output)
	}
}

func TestPrintfFormats(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	printf("%d %x %c %s %%\n", -7, 255, 65, "ok");
	return 0;
}`, 0)
	if r.Output != "-7 ff A ok %\n" {
		t.Errorf("output = %q", r.Output)
	}
}

func TestSprintfAtoi(t *testing.T) {
	mustExit(t, `
int main(void) {
	char buf[32];
	sprintf(buf, "%d", 1234);
	return atoi(buf) == 1234;
}`, 1)
}

func TestMemcpyMemset(t *testing.T) {
	mustExit(t, `
int main(void) {
	int a[8];
	int b[8];
	memset(a, 0, sizeof(a));
	a[3] = 99;
	memcpy(b, a, sizeof(a));
	return b[3] + a[0];
}`, 99)
}

func TestSwitch(t *testing.T) {
	mustExit(t, `
int classify(int x) {
	switch (x) {
	case 0: return 100;
	case 1:
	case 2: return 200;
	case 3: break;
	default: return 400;
	}
	return 300;
}
int main(void) {
	return classify(0) / 100 * 1000 + classify(2) + classify(3) / 100 + classify(9) / 400;
}`, 1000+200+3+1)
}

func TestShortCircuit(t *testing.T) {
	mustExit(t, `
int calls = 0;
int bump(void) { calls++; return 1; }
int main(void) {
	int a = 0 && bump(); // bump not called
	int b = 1 || bump(); // bump not called
	int c = 1 && bump(); // called
	int d = 0 || bump(); // called
	return calls * 10 + (a + b + c + d);
}`, 23)
}

func TestCondExpr(t *testing.T) {
	mustExit(t, `
int main(void) {
	int x = 5;
	int y = x > 3 ? 10 : 20;
	int *p = x > 3 ? &x : &y;
	return y + *p;
}`, 15)
}

func TestSetjmpLongjmp(t *testing.T) {
	mustExit(t, `
int jb[8];
int depth(int n) {
	if (n == 0) longjmp(jb, 42);
	return depth(n - 1);
}
int main(void) {
	int r = setjmp(jb);
	if (r == 0) {
		depth(5);
		return 1; // unreachable
	}
	return r;
}`, 42)
}

func TestReadInput(t *testing.T) {
	p := compile(t, `
int main(void) {
	char buf[64];
	int n = read_input(buf, 64);
	return n + buf[0];
}`)
	m, err := New(p, Config{Input: []byte("Az")})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run("main")
	if r.Trap != TrapExit || r.ExitCode != 2+'A' {
		t.Fatalf("r = %+v", r)
	}
}

func TestExitAndAbort(t *testing.T) {
	r := run(t, `int main(void) { exit(7); return 1; }`, Config{})
	if r.Trap != TrapExit || r.ExitCode != 7 {
		t.Fatalf("exit: %+v", r)
	}
	r = run(t, `int main(void) { abort(); return 1; }`, Config{})
	if r.Trap != TrapAbort {
		t.Fatalf("abort: %+v", r)
	}
}

func TestDivZeroTrap(t *testing.T) {
	r := run(t, `int main(void) { int z = 0; return 5 / z; }`, Config{})
	if r.Trap != TrapDivZero {
		t.Fatalf("trap = %v", r.Trap)
	}

	// Mid-trace: the divisor reaches zero on a later loop iteration, inside
	// a segment, after other ops of the same trace have run. The blocks run
	// must trap at the same pc, step and cycle as the dispatch loop.
	const src = `
int main(void) {
	int s = 0;
	for (int d = 6; d > -3; d--) {
		s = s * 3 + 1;
		s += 100 / d + s % d;
	}
	return s;
}`
	for _, opts := range []irgen.Options{{}, {PromoteRegisters: true}} {
		p := compileWith(t, src, opts)
		b := runCode(t, p, PredecodeWith(p, PredecodeOptions{}), Config{})
		n := runCode(t, p, PredecodeWith(p, PredecodeOptions{NoBlockCompile: true}), Config{})
		if b.Trap != TrapDivZero || n.Trap != TrapDivZero {
			t.Fatalf("%+v: trap blocks=%v noblocks=%v, want %v", opts, b.Trap, n.Trap, TrapDivZero)
		}
		if b.Err.PC != n.Err.PC || b.Steps != n.Steps || b.Cycles != n.Cycles {
			t.Fatalf("%+v: blocks pc=%s steps=%d cycles=%d; noblocks pc=%s steps=%d cycles=%d",
				opts, b.Err.PC, b.Steps, b.Cycles, n.Err.PC, n.Steps, n.Cycles)
		}
		if b.BlockSteps == 0 {
			t.Fatalf("%+v: no steps ran inside segments", opts)
		}
	}
}

func TestNullDerefFaults(t *testing.T) {
	r := run(t, `int main(void) { int *p = 0; return *p; }`, Config{})
	if r.Trap != TrapSegFault {
		t.Fatalf("trap = %v", r.Trap)
	}
}

func TestNullCallTraps(t *testing.T) {
	r := run(t, `
int main(void) {
	int (*f)(void) = 0;
	return f();
}`, Config{})
	if r.Trap != TrapNullCall {
		t.Fatalf("trap = %v (%v)", r.Trap, r.Err)
	}
}

// TestStackOverflowTraps: unbounded recursion traps at the fixed call
// depth, both through the block executors' call and the per-instruction
// pushFrame.
func TestStackOverflowTraps(t *testing.T) {
	p := compile(t, `
int inf(int n) { return inf(n + 1); }
int main(void) { return inf(0); }`)
	for _, noBlocks := range []bool{false, true} {
		code := PredecodeWith(p, PredecodeOptions{NoBlockCompile: noBlocks})
		m, err := NewShared(p, code, Config{})
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run("main")
		if r.Trap != TrapStackOverflow || r.Err == nil || r.Err.Msg != "call depth 4096" {
			t.Errorf("NoBlockCompile=%v: trap = %v (%v), want stack overflow at call depth 4096",
				noBlocks, r.Trap, r.Err)
		}
	}
}

func TestDeterministicCycles(t *testing.T) {
	src := `
int main(void) {
	int s = 0;
	for (int i = 0; i < 1000; i++) s += i;
	return s & 0xff;
}`
	r1 := run(t, src, Config{Seed: 1})
	r2 := run(t, src, Config{Seed: 1})
	if r1.Cycles != r2.Cycles || r1.Steps != r2.Steps {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/steps",
			r1.Cycles, r1.Steps, r2.Cycles, r2.Steps)
	}
	if r1.Cycles == 0 {
		t.Error("cycle accounting inactive")
	}
}

func TestASLRChangesLayoutNotBehaviour(t *testing.T) {
	src := `
int g = 3;
int main(void) { int *p = &g; return *p + (int)p % 2; }`
	p := compile(t, src)
	// Plain ASLR (non-PIE) keeps globals fixed; PIE moves them too.
	m1, _ := New(p, Config{ASLR: true, Seed: 1})
	m2, _ := New(p, Config{ASLR: true, Seed: 2})
	a1, _ := m1.GlobalAddr("g")
	a2, _ := m2.GlobalAddr("g")
	if a1 != a2 {
		t.Error("non-PIE ASLR must keep globals at linked addresses")
	}
	p1, _ := New(p, Config{ASLR: true, PIE: true, Seed: 1})
	p2, _ := New(p, Config{ASLR: true, PIE: true, Seed: 2})
	b1, _ := p1.GlobalAddr("g")
	b2, _ := p2.GlobalAddr("g")
	if b1 == b2 {
		t.Error("PIE ASLR with different seeds should move globals")
	}
	r1, r2 := m1.Run("main"), p1.Run("main")
	if r1.Trap != TrapExit || r2.Trap != TrapExit {
		t.Fatalf("traps: %v %v", r1.Trap, r2.Trap)
	}
}

func TestCharSemantics(t *testing.T) {
	mustExit(t, `
int main(void) {
	char c = 300; // truncates to 44
	char buf[3];
	buf[0] = 'a'; buf[1] = c; buf[2] = 0;
	return buf[1];
}`, 44)
}

// TestConstCharCastTruncates pins constant char casts to the VM's char
// cast: a folded (char)300 is 44 in a global initializer and in a local
// initializer, as the executed cast of a variable is, and the parser folds
// it the same way in an array size and a case label.
func TestConstCharCastTruncates(t *testing.T) {
	r := mustExit(t, `
int h = (char)300;
int main(void) {
	int l = (char)300;
	int x = 300;
	printf("%d %d %d\n", h, l, (char)x);
	return 0;
}`, 0)
	if r.Output != "44 44 44\n" {
		t.Errorf("output %q, want \"44 44 44\\n\"", r.Output)
	}
	mustExit(t, `
int main(void) {
	char a[(char)258];
	switch (44) {
	case (char)300: return sizeof(a);
	}
	return 0;
}`, 2)
}

func TestPointerDifference(t *testing.T) {
	mustExit(t, `
int main(void) {
	int a[10];
	int *p = &a[2];
	int *q = &a[7];
	return q - p;
}`, 5)
}

func TestSscanf(t *testing.T) {
	mustExit(t, `
int main(void) {
	int x; int y;
	char word[16];
	int n = sscanf("12 abc 34", "%d %s %d", &x, word, &y);
	return n * 100 + x + y + (strcmp(word, "abc") == 0);
}`, 300+12+34+1)
}

func TestMemStatsTracked(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	int *p = (int *)malloc(4096);
	p[0] = 1;
	return p[0];
}`, 1)
	if r.Mem.HeapPeak < 4096 {
		t.Errorf("heap peak = %d", r.Mem.HeapPeak)
	}
	if r.Mem.StackPeak <= 0 {
		t.Errorf("stack peak = %d", r.Mem.StackPeak)
	}
}
