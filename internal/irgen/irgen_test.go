package irgen

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/minic/ast"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	return lowerOpts(t, src, Options{})
}

func lowerOpts(t *testing.T, src string, opts Options) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(f); err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := LowerWith(f, opts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, p)
	}
	return p
}

func TestLowerSimple(t *testing.T) {
	p := lower(t, `
int add(int a, int b) { return a + b; }
`)
	fn := p.FuncByName("add")
	if fn == nil {
		t.Fatal("add not lowered")
	}
	// Two param spill slots.
	if len(fn.Frame) != 2 {
		t.Fatalf("frame objects = %d, want 2", len(fn.Frame))
	}
	// Entry: two stores (spills), two loads, one add, one ret.
	ops := opList(fn)
	want := []ir.Op{ir.OpStore, ir.OpStore, ir.OpLoad, ir.OpLoad, ir.OpBin, ir.OpRet}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %v, want %v", i, ops[i], want[i])
		}
	}
}

func opList(fn *ir.Func) []ir.Op {
	var ops []ir.Op
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			ops = append(ops, b.Ins[i].Op)
		}
	}
	return ops
}

func TestDirectFrameAccessStaysDirect(t *testing.T) {
	// Scalar locals accessed by name must use direct ValFrame operands
	// (safe-stack eligible); no OpAddr/OpGEP should appear.
	p := lower(t, `
int f(void) {
	int x = 1;
	int y = x + 2;
	return y;
}
`)
	fn := p.FuncByName("f")
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Op == ir.OpAddr || in.Op == ir.OpGEP {
				t.Errorf("unexpected %v in scalar-only function", in.Op)
			}
			if in.IsMemOp() && in.A.Kind != ir.ValFrame {
				t.Errorf("memory op with non-frame address: %s", in.String())
			}
		}
	}
}

func TestConstIndexFolded(t *testing.T) {
	p := lower(t, `
int f(void) {
	int a[4];
	a[2] = 7;
	return a[2];
}
`)
	fn := p.FuncByName("f")
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Op == ir.OpGEP {
				t.Errorf("constant in-bounds index should fold, got %s", in.String())
			}
			if in.Op == ir.OpStore && in.A.Kind == ir.ValFrame && in.A.Imm != 16 {
				t.Errorf("a[2] store at offset %d, want 16", in.A.Imm)
			}
		}
	}
}

func TestVariableIndexUsesGEP(t *testing.T) {
	p := lower(t, `
int f(int i) {
	int a[4];
	a[i] = 7;
	return a[i];
}
`)
	fn := p.FuncByName("f")
	geps := 0
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			if b.Ins[i].Op == ir.OpGEP {
				geps++
				if b.Ins[i].Scale != 8 {
					t.Errorf("GEP scale = %d, want 8", b.Ins[i].Scale)
				}
			}
		}
	}
	if geps != 2 {
		t.Errorf("GEP count = %d, want 2", geps)
	}
}

func TestPointerArithmeticIsGEP(t *testing.T) {
	p := lower(t, `
int f(int *p, int n) {
	int *q = p + n;
	q = q - 1;
	return q - p;
}
`)
	fn := p.FuncByName("f")
	var geps []int64
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			if b.Ins[i].Op == ir.OpGEP {
				geps = append(geps, b.Ins[i].Scale)
			}
		}
	}
	if len(geps) != 2 || geps[0] != 8 || geps[1] != -8 {
		t.Errorf("GEP scales = %v, want [8 -8]", geps)
	}
}

func TestGlobalInit(t *testing.T) {
	p := lower(t, `
int x = 42;
char msg[4] = "hi";
int ops(int a) { return a; }
int (*table[2])(int) = { ops, 0 };
int *px = &x;
char *s = "hello";
`)
	gx := p.Globals[0]
	if len(gx.Init) != 1 || gx.Init[0].Val != 42 || gx.Init[0].Size != 8 {
		t.Errorf("x init = %+v", gx.Init)
	}
	msg := p.Globals[1]
	if len(msg.Init) != 2 || msg.Init[0].Val != 'h' || msg.Init[1].Val != 'i' {
		t.Errorf("msg init = %+v", msg.Init)
	}
	table := p.Globals[2]
	if len(table.Init) != 2 {
		t.Fatalf("table init = %+v", table.Init)
	}
	if table.Init[0].Kind != ir.InitFuncAddr || table.Init[0].Index != 0 {
		t.Errorf("table[0] = %+v, want func#0", table.Init[0])
	}
	if table.Init[1].Kind != ir.InitConst || table.Init[1].Val != 0 {
		t.Errorf("table[1] = %+v, want null", table.Init[1])
	}
	px := p.Globals[3]
	if px.Init[0].Kind != ir.InitGlobalAddr || px.Init[0].Index != 0 {
		t.Errorf("px init = %+v", px.Init)
	}
	s := p.Globals[4]
	if s.Init[0].Kind != ir.InitStringAddr {
		t.Errorf("s init = %+v", s.Init)
	}
	if p.Strings[s.Init[0].Index] != "hello" {
		t.Errorf("string table: %q", p.Strings)
	}
}

func TestStringInterning(t *testing.T) {
	p := lower(t, `
char *a = "same";
char *b = "same";
char *c = "different";
`)
	if len(p.Strings) != 2 {
		t.Errorf("strings = %q, want 2 entries", p.Strings)
	}
}

func TestCallLowering(t *testing.T) {
	p := lower(t, `
int helper(int x) { return x; }
int run(int (*fp)(int)) {
	int direct = helper(1);
	int indirect = fp(2);
	int viaptr = (*fp)(3);
	strcpy((char*)0, (char*)0);
	return direct + indirect + viaptr;
}
`)
	fn := p.FuncByName("run")
	var calls, icalls, intrs int
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			switch b.Ins[i].Op {
			case ir.OpCall:
				if b.Ins[i].Callee < 0 {
					intrs++
				} else {
					calls++
				}
			case ir.OpICall:
				icalls++
			}
		}
	}
	if calls != 1 || icalls != 2 || intrs != 1 {
		t.Errorf("calls=%d icalls=%d intrs=%d, want 1/2/1", calls, icalls, intrs)
	}
}

func TestFunctionAddressConstant(t *testing.T) {
	p := lower(t, `
void cb(void) {}
void reg(void (*f)(void));
void setup(void) { reg(cb); reg(&cb); }
`)
	fn := p.FuncByName("setup")
	count := 0
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			for _, a := range b.Ins[i].Args {
				if a.Kind == ir.ValFunc {
					count++
				}
			}
		}
	}
	if count != 2 {
		t.Errorf("ValFunc args = %d, want 2", count)
	}
	if !p.FuncByName("cb").AddressTaken {
		t.Error("cb should be address-taken")
	}
}

func TestShortCircuitLowering(t *testing.T) {
	p := lower(t, `
int f(int a, int b) {
	if (a && b) return 1;
	if (a || b) return 2;
	return a ? b : -b;
}
`)
	fn := p.FuncByName("f")
	if len(fn.Blocks) < 9 {
		t.Errorf("short-circuit lowering produced %d blocks", len(fn.Blocks))
	}
}

func TestSwitchLowering(t *testing.T) {
	p := lower(t, `
int f(int x) {
	int r = 0;
	switch (x) {
	case 1: r = 10; break;
	case 2:
	case 3: r = 20; break;
	default: r = 30;
	}
	return r;
}
`)
	fn := p.FuncByName("f")
	eqs := 0
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			if b.Ins[i].Op == ir.OpBin && b.Ins[i].ALU == ir.AEq {
				eqs++
			}
		}
	}
	if eqs != 3 {
		t.Errorf("dispatch comparisons = %d, want 3", eqs)
	}
}

func TestLoadStoreTypesCarrySensitivity(t *testing.T) {
	p := lower(t, `
struct ops { void (*fn)(void); int n; };
void set(struct ops *o, void (*f)(void)) {
	o->fn = f;
	o->n = 1;
}
`)
	fn := p.FuncByName("set")
	var fptrStores, intStores int
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Op != ir.OpStore {
				continue
			}
			if in.Ty.IsFuncPtr() {
				fptrStores++
			} else if in.Ty.Kind == ctypes.KindInt {
				intStores++
			}
		}
	}
	// o->fn = f is one fptr store; param spills include the fptr param f.
	if fptrStores != 2 {
		t.Errorf("function-pointer-typed stores = %d, want 2", fptrStores)
	}
	if intStores != 1 {
		t.Errorf("int stores = %d, want 1", intStores)
	}
}

func TestEveryBlockTerminated(t *testing.T) {
	p := lower(t, `
int f(int x) {
	if (x) { return 1; } else { return 2; }
}
void g(int x) {
	while (x) { if (x == 1) return; x--; }
}
`)
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			if len(b.Ins) == 0 {
				t.Fatalf("%s: empty block .%d", fn.Name, b.Index)
			}
			if !b.Ins[len(b.Ins)-1].IsTerm() {
				t.Fatalf("%s: block .%d not terminated", fn.Name, b.Index)
			}
		}
	}
}

func TestIRPrinterCoverage(t *testing.T) {
	p := lower(t, `
int g = 1;
char *s = "x";
int f(int *p, int i) {
	int a[4];
	a[i] = *p + g;
	return a[i];
}
`)
	out := p.String()
	for _, frag := range []string{"global @g", "string $0", "func f", "gep", "load", "store", "ret"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printer output missing %q", frag)
		}
	}
}

func TestLocalInitLowering(t *testing.T) {
	p := lower(t, `
struct pt { int x; int y; };
int f(void) {
	char buf[4] = "ab";
	int v[3] = { 1, 2, 3 };
	struct pt pt = { 5, 6 };
	return buf[0] + v[1] + pt.y;
}
`)
	fn := p.FuncByName("f")
	stores := 0
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			if b.Ins[i].Op == ir.OpStore {
				stores++
			}
		}
	}
	// 3 bytes of "ab\0" + 3 ints + 2 struct fields = 8 stores.
	if stores != 8 {
		t.Errorf("init stores = %d, want 8", stores)
	}
}

var _ = ast.RefFunc // keep import for doc reference

// TestBlocksExactSize requires each function the lowering builds, promoted
// and unpromoted, to hold its instructions in one allocation of their exact
// size: its blocks are consecutive cap-limited windows of one array, so
// Emit on a block reallocates it rather than overwrite the block after it.
func TestBlocksExactSize(t *testing.T) {
	size := unsafe.Sizeof(ir.Instr{})
	for name, src := range bundledSources() {
		for _, promote := range []bool{false, true} {
			for _, fn := range lowerOpts(t, src, Options{PromoteRegisters: promote}).Funcs {
				where := fmt.Sprintf("%s, promote=%v, %s", name, promote, fn.Name)
				var sumLen, sumCap int
				for i, b := range fn.Blocks {
					sumLen += len(b.Ins)
					sumCap += cap(b.Ins)
					if i == 0 {
						continue
					}
					prev := fn.Blocks[i-1]
					if end := uintptr(unsafe.Pointer(unsafe.SliceData(prev.Ins))) + uintptr(len(prev.Ins))*size; end != uintptr(unsafe.Pointer(unsafe.SliceData(b.Ins))) {
						t.Errorf("%s: block %d does not start where block %d ends", where, i, i-1)
					}
				}
				if sumCap != sumLen {
					t.Errorf("%s: blocks hold %d instructions in capacity %d", where, sumLen, sumCap)
				}
				for i := 0; i+1 < len(fn.Blocks); i++ {
					next := fn.Blocks[i+1]
					want := slices.Clone(next.Ins)
					fn.Blocks[i].Emit(ir.Instr{Op: ir.OpRet, Dst: -1})
					if !reflect.DeepEqual(next.Ins, want) {
						t.Errorf("%s: Emit on block %d changed block %d", where, i, i+1)
					}
				}
			}
		}
	}
}

// TestLowerReleasesBlockBuffer requires the instruction buffer LowerWith
// returns to insPool, after a promoted or an unpromoted lowering, to hold
// no instruction (their types and argument lists would keep the lowered
// program alive for as long as the buffer waits) and no block of the
// program to be a window of it. With one P the pool hands the buffer just
// put back to the next Get.
func TestLowerReleasesBlockBuffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const src = `int f(int *p, int n) { int s = 0; while (n > 0) { if (p[n]) s = s + f(p, n - 1); n = n - 1; } return s; }
int main(void) { return 0; }`
	for _, promote := range []bool{false, true} {
		p := lowerOpts(t, src, Options{PromoteRegisters: promote})
		buf := insPool.Get().(*[]ir.Instr)
		if cap(*buf) == 0 {
			insPool.Put(buf)
			t.Skip("the pool dropped the buffer (it may, under the race detector)")
		}
		pooled := (*buf)[:cap(*buf)]
		for i, in := range pooled {
			if in.Ty != nil || in.FromTy != nil || in.Args != nil || in.Op != 0 {
				t.Fatalf("promote=%v: pooled buffer slot %d still holds %v", promote, i, in)
			}
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(pooled)))
		hi := lo + uintptr(len(pooled))*unsafe.Sizeof(ir.Instr{})
		for _, fn := range p.Funcs {
			for _, b := range fn.Blocks {
				if at := uintptr(unsafe.Pointer(unsafe.SliceData(b.Ins))); at >= lo && at < hi {
					t.Errorf("promote=%v: %s block %d lies in the pooled buffer", promote, fn.Name, b.Index)
				}
			}
		}
		insPool.Put(buf)
	}
}
