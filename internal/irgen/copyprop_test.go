package irgen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

func movCount(fn *ir.Func) int { return countOps(fn, ir.OpMov) }

// runMain executes the lowered program's main() on a plain VM and returns
// its exit value.
func runMain(t *testing.T, p *ir.Program) int64 {
	t.Helper()
	m, err := vm.New(p, vm.Config{MaxSteps: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run("main")
	if res.Trap != vm.TrapExit {
		t.Fatalf("trap %v: %+v", res.Trap, res.Err)
	}
	return res.ExitCode
}

func TestCopyPropCrossBlockAlias(t *testing.T) {
	// b is a pure alias of a, read only in the two branch arms — blocks the
	// local pass never sees together. Cross-block propagation rewrites both
	// reads to a's register and the aliasing mov dies.
	p := lowerPromoted(t, `
int h(int x) { return x + 1; }
int f(int a, int c) {
	int b = a;
	if (c) return h(b);
	return b + 7;
}
`)
	fn := p.FuncByName("f")
	if n := movCount(fn); n != 0 {
		t.Errorf("%d movs remain after cross-block copy propagation:\n%s", n, fn)
	}
}

func TestCopyPropRespectsKillAtJoin(t *testing.T) {
	// b aliases a only on one path to the join (the else arm reassigns b),
	// so the intersection at the join holds no pair and the read of b after
	// the join must keep reading b's own register.
	p := lowerPromoted(t, `
int f(int a, int c) {
	int b = a;
	if (c) { b = a + 5; }
	return b * 2;
}
int main(void) { return f(3, 1) * 100 + f(3, 0); }
`)
	if got := runMain(t, p); got != 1606 {
		t.Errorf("main = %d, want 1606:\n%s", got, p.FuncByName("f"))
	}
}

func TestCopyPropLoopCarriedVariable(t *testing.T) {
	// s is reassigned in the loop body and dead on the exit arm, which
	// returns something else; i is read on both arms. The loop's copies
	// cross the back edge, so the header's available-copy set must drop
	// every pair the body kills.
	p := lowerPromoted(t, `
int g(int x) { return x; }
int f(int n) {
	int i = 0;
	int s = 1;
	while (i < n) {
		s = g(s);
		i = i + 1;
	}
	return i;
}
int main(void) { return f(5); }
`)
	// Behavioral check: the function still loops correctly.
	if got := runMain(t, p); got != 5 {
		t.Errorf("f(5) = %d, want 5:\n%s", got, p.FuncByName("f"))
	}
}

func TestCopyPropDominators(t *testing.T) {
	// Diamond: entry(0) -> 1, 2 -> 3. Entry dominates all; neither arm
	// dominates the join.
	fn := &ir.Func{Name: "d", NumRegs: 1}
	for i := 0; i < 4; i++ {
		fn.NewBlock("")
	}
	fn.Blocks[0].Ins = []ir.Instr{{Op: ir.OpCondBr, Dst: -1, A: ir.Reg(0), Blk0: 1, Blk1: 2}}
	fn.Blocks[1].Ins = []ir.Instr{{Op: ir.OpBr, Dst: -1, Blk0: 3}}
	fn.Blocks[2].Ins = []ir.Instr{{Op: ir.OpBr, Dst: -1, Blk0: 3}}
	fn.Blocks[3].Ins = []ir.Instr{{Op: ir.OpRet, Dst: -1, A: ir.Reg(0)}}
	rpo := reversePostorder(fn)
	preds := predLists(fn)
	idom := immediateDominators(fn, rpo, preds)
	if idom[1] != 0 || idom[2] != 0 || idom[3] != 0 {
		t.Errorf("idom = %v, want [0 0 0 0]", idom)
	}
	if !dominates(idom, 0, 3) || dominates(idom, 1, 3) || dominates(idom, 2, 3) {
		t.Error("dominance over the diamond join is wrong")
	}
}

func TestCopyPropLoopHeaderKill(t *testing.T) {
	// Loop: entry(0) -> header(1) -> body(2) -> header; header -> exit(3).
	// The body redefines r1, so the pair (r2,r1) generated in the entry
	// must not be available in the header (the back edge kills it).
	fn := &ir.Func{Name: "l", NumRegs: 3}
	for i := 0; i < 4; i++ {
		fn.NewBlock("")
	}
	fn.Blocks[0].Ins = []ir.Instr{
		{Op: ir.OpMov, Dst: 2, A: ir.Reg(1)},
		{Op: ir.OpBr, Dst: -1, Blk0: 1},
	}
	fn.Blocks[1].Ins = []ir.Instr{{Op: ir.OpCondBr, Dst: -1, A: ir.Reg(0), Blk0: 2, Blk1: 3}}
	fn.Blocks[2].Ins = []ir.Instr{
		{Op: ir.OpBin, ALU: ir.AAdd, Dst: 1, A: ir.Reg(1), B: ir.Const(1)},
		{Op: ir.OpBr, Dst: -1, Blk0: 1},
	}
	fn.Blocks[3].Ins = []ir.Instr{{Op: ir.OpRet, Dst: -1, A: ir.Reg(2)}}
	rpo := reversePostorder(fn)
	preds := predLists(fn)
	out := copyDataflow(fn, rpo, preds)
	if _, ok := out[0][2]; !ok {
		t.Error("entry OUT must carry the pair (r2, r1)")
	}
	st := meetPreds(out, preds[1], 1)
	if _, ok := st[2]; ok {
		t.Errorf("pair (r2, r1) must be killed at the loop header (body redefines r1): IN = %v", st)
	}
}
