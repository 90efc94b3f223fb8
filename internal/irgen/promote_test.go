package irgen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
)

func lowerPromoted(t *testing.T, src string) *ir.Program {
	t.Helper()
	return lowerOpts(t, src, Options{PromoteRegisters: true})
}

func frameNames(fn *ir.Func) []string {
	var names []string
	for _, obj := range fn.Frame {
		names = append(names, obj.Name)
	}
	return names
}

func promotedNames(fn *ir.Func) map[string]bool {
	m := map[string]bool{}
	for _, pv := range fn.Promoted {
		m[pv.Name] = true
	}
	return m
}

func countOps(fn *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			if b.Ins[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestPromoteEliminatesSpillsAndLoads(t *testing.T) {
	p := lowerPromoted(t, `
int add(int a, int b) { return a + b; }
`)
	fn := p.FuncByName("add")
	if len(fn.Frame) != 0 {
		t.Errorf("frame objects remain: %v", frameNames(fn))
	}
	if n := countOps(fn, ir.OpLoad) + countOps(fn, ir.OpStore); n != 0 {
		t.Errorf("%d memory ops remain in scalar-only function:\n%s", n, fn)
	}
	// Both parameters promoted onto their own registers.
	pn := promotedNames(fn)
	if !pn["a"] || !pn["b"] {
		t.Errorf("params not promoted: %+v", fn.Promoted)
	}
	// The whole body folds to one add and the return.
	if ops := opList(fn); len(ops) != 2 || ops[0] != ir.OpBin || ops[1] != ir.OpRet {
		t.Errorf("ops = %v, want [bin ret]", ops)
	}
}

func TestPromoteFoldsAssignmentIntoDef(t *testing.T) {
	p := lowerPromoted(t, `
int f(int a) {
	int x = a + 1;
	x = x * 2;
	return x;
}
`)
	fn := p.FuncByName("f")
	if len(fn.Frame) != 0 {
		t.Errorf("frame objects remain: %v", frameNames(fn))
	}
	// Each assignment is a single folded instruction: bin, bin, ret.
	if ops := opList(fn); len(ops) != 3 || ops[0] != ir.OpBin || ops[1] != ir.OpBin {
		t.Errorf("ops = %v, want [bin bin ret]", ops)
	}
	if !fn.MutableRegSet()[fn.Promoted[1].Reg] {
		t.Error("promoted local's register not marked mutable")
	}
}

func TestPromoteKeepsAddressTakenInMemory(t *testing.T) {
	p := lowerPromoted(t, `
int f(void) {
	int x = 1;
	int *p = &x;
	*p = 2;
	return x;
}
`)
	fn := p.FuncByName("f")
	// x's address escapes: it must stay a frame object. p is a plain scalar
	// pointer: promoted.
	if names := frameNames(fn); len(names) != 1 || names[0] != "x" {
		t.Errorf("frame = %v, want [x]", names)
	}
	if !promotedNames(fn)["p"] {
		t.Errorf("p not promoted: %+v", fn.Promoted)
	}
}

func TestPromoteKeepsPossiblyUninitializedInMemory(t *testing.T) {
	// x is read uninitialized when c is false: the unpromoted program reads
	// its stale frame slot, so promotion must leave it there.
	p := lowerPromoted(t, `
int f(int c) {
	int x;
	if (c) { x = 1; }
	return x;
}
`)
	fn := p.FuncByName("f")
	if names := frameNames(fn); len(names) != 1 || names[0] != "x" {
		t.Errorf("frame = %v, want [x]", names)
	}
	if promotedNames(fn)["x"] {
		t.Error("potentially uninitialized x must not be promoted")
	}
}

func TestPromoteAddressTakenParamKeepsSpill(t *testing.T) {
	p := lowerPromoted(t, `
int f(int a) {
	int *p = &a;
	*p = *p + 1;
	return a;
}
`)
	fn := p.FuncByName("f")
	if names := frameNames(fn); len(names) != 1 || names[0] != "a" {
		t.Errorf("frame = %v, want [a]", names)
	}
	// The entry spill store for a must survive.
	if countOps(fn, ir.OpStore) == 0 {
		t.Error("address-taken parameter lost its entry spill")
	}
	if promotedNames(fn)["a"] {
		t.Error("address-taken parameter must not be promoted")
	}
}

func TestPromoteShortCircuitAndLoopsNeedNoMemory(t *testing.T) {
	// Loop counters, accumulators and the short-circuit/conditional
	// temporaries all promote: the function body touches no memory at all.
	p := lowerPromoted(t, `
int f(int n) {
	int s = 0;
	int i = 0;
	while (i < n && s < 100) {
		s += i > 2 ? i : 1;
		i++;
	}
	return s;
}
`)
	fn := p.FuncByName("f")
	if len(fn.Frame) != 0 {
		t.Errorf("frame objects remain: %v", frameNames(fn))
	}
	if n := countOps(fn, ir.OpLoad) + countOps(fn, ir.OpStore); n != 0 {
		t.Errorf("%d memory ops remain:\n%s", n, fn)
	}
	// The join temporaries are mutable registers written from both arms.
	if len(fn.Promoted) < 3 { // s, i, plus at least one join temp
		t.Errorf("promoted = %+v, want s, i and join temps", fn.Promoted)
	}
}

func TestPromoteSwitchFallthroughUninitStaysInMemory(t *testing.T) {
	// Entering case 2 directly skips x's initialization: the load is not
	// store-dominated, so x stays in memory (C allows the read; the
	// unpromoted program sees the stale slot).
	p := lowerPromoted(t, `
int f(int c) {
	int r = 0;
	switch (c) {
	case 1: { int x = 5; r = x; break; }
	case 2: r = 7; break;
	}
	return r;
}
`)
	fn := p.FuncByName("f")
	if promotedNames(fn)["r"] != true {
		t.Errorf("r should promote: %+v", fn.Promoted)
	}
}

func TestPromoteShrinksInstructionCount(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10); }
`
	f1, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sema.Check(f1); err != nil {
		t.Fatal(err)
	}
	unpromoted, err := Lower(f1)
	if err != nil {
		t.Fatal(err)
	}
	promoted := lowerPromoted(t, src)
	count := func(p *ir.Program) int {
		n := 0
		for _, fn := range p.Funcs {
			for _, b := range fn.Blocks {
				n += len(b.Ins)
			}
		}
		return n
	}
	cu, cp := count(unpromoted), count(promoted)
	if cp >= cu {
		t.Errorf("promotion did not shrink the program: %d -> %d", cu, cp)
	}
}

func TestPromoteCaptureBeforeMutation(t *testing.T) {
	// f(i, i++) must pass the *old* i as both arguments (the unpromoted
	// lowering captures the first argument with a load before the
	// increment); the capture mov must survive copy propagation.
	p := lowerPromoted(t, `
int f(int a, int b) { return a * 10 + b; }
int g(void) {
	int i = 4;
	return f(i, i++);
}
`)
	fn := p.FuncByName("g")
	// At least one mov must remain: the capture of i before the increment.
	if countOps(fn, ir.OpMov) == 0 {
		t.Fatalf("capture mov eliminated:\n%s", fn)
	}
}
