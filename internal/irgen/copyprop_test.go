package irgen

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic/builtins"
	"repro/internal/vm"
	"repro/internal/workloads"
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
	cf := newCopyFlow(fn, newCopySet(fn.NumRegs))
	cf.solve(rpo, preds)
	if !slices.Contains(cf.out[0], copyPair{2, 1}) {
		t.Errorf("entry OUT must carry the pair (r2, r1): %v", cf.out[0])
	}
	cf.meetPreds(preds[1], 1)
	if _, ok := cf.st.lookup(2); ok {
		t.Errorf("pair (r2, r1) must be killed at the loop header (body redefines r1): IN = %v",
			cf.st.appendPairs(nil))
	}
}

// bundledSources is every workload source: the micros, the SPEC and
// Phoronix stand-ins and both forms of the web stack.
func bundledSources() map[string]string {
	srcs := map[string]string{}
	for _, set := range [][]workloads.Workload{workloads.Micro(), workloads.Spec(), workloads.Phoronix()} {
		for _, w := range set {
			srcs[w.Name] = w.Src
		}
	}
	for _, set := range [][]workloads.WebPage{workloads.WebStack(), workloads.WebServe()} {
		for _, p := range set {
			srcs[p.Name] = p.Src
		}
	}
	return srcs
}

// cloneFunc copies fn deeply enough for the promotion passes to rewrite
// the copy without touching fn.
func cloneFunc(fn *ir.Func) *ir.Func {
	c := *fn
	c.Promoted = slices.Clone(fn.Promoted)
	c.Blocks = make([]*ir.Block, len(fn.Blocks))
	for i, b := range fn.Blocks {
		nb := *b
		nb.Ins = slices.Clone(b.Ins)
		for j := range nb.Ins {
			nb.Ins[j].Args = slices.Clone(nb.Ins[j].Args)
		}
		c.Blocks[i] = &nb
	}
	return &c
}

// sameCopyProp runs both copy propagations, with elision between them as
// promoteFunc runs them, on two clones of fn: the dense passes on one and
// the reference passes on the other. It returns the dense clone, or where
// the two first differ.
func sameCopyProp(fn *ir.Func) (*ir.Func, error) {
	a, b := cloneFunc(fn), cloneFunc(fn)
	st := newCopySet(a.NumRegs)
	propagateCopies(a, st)
	refPropagateCopies(b)
	if as, bs := a.String(), b.String(); as != bs {
		return nil, fmt.Errorf("block-local pass differs:\ndense:\n%s\nreference:\n%s", as, bs)
	}
	foldMovIntoDef(a)
	elideDeadMovs(a)
	foldMovIntoDef(b)
	elideDeadMovs(b)
	ac, bc := crossBlockCopyProp(a, st), refCrossBlockCopyProp(b)
	if as, bs := a.String(), b.String(); ac != bc || as != bs {
		return nil, fmt.Errorf("cross-block pass differs (changed %v, reference %v):\ndense:\n%s\nreference:\n%s",
			ac, bc, as, bs)
	}
	return a, nil
}

// TestCopyPropMatchesReference requires the dense passes to rewrite every
// promoted function of every bundled source exactly as the map-based
// reference does.
func TestCopyPropMatchesReference(t *testing.T) {
	funcs := 0
	for name, src := range bundledSources() {
		p := lower(t, src)
		for _, fn := range p.Funcs {
			if promoteSlots(fn) == nil {
				continue
			}
			funcs++
			if _, err := sameCopyProp(fn); err != nil {
				t.Fatalf("%s, %s: %v", name, fn.Name, err)
			}
		}
	}
	if funcs < 100 {
		t.Fatalf("only %d promoted functions compared", funcs)
	}
}

// TestCopyPropAllocs pins the passes' allocations on the bundled
// function with the most blocks: a fixed handful of CFG and state arrays
// whatever the block count, where per-block maps allocated per block and
// sweep.
func TestCopyPropAllocs(t *testing.T) {
	var fn *ir.Func
	for _, src := range bundledSources() {
		for _, f := range lower(t, src).Funcs {
			if (fn == nil || len(f.Blocks) > len(fn.Blocks)) && promoteSlots(cloneFunc(f)) != nil {
				fn = f
			}
		}
	}
	promoteSlots(fn)
	propagateCopies(fn, newCopySet(fn.NumRegs))
	foldMovIntoDef(fn)
	elideDeadMovs(fn)
	t.Logf("%s: %d blocks, %d registers", fn.Name, len(fn.Blocks), fn.NumRegs)
	got := testing.AllocsPerRun(20, func() {
		st := newCopySet(fn.NumRegs)
		propagateCopies(fn, st)
		crossBlockCopyProp(fn, st)
	})
	if got > 11 {
		t.Errorf("%v allocations per run of both passes, want at most 11", got)
	}
}

// randomCopyCFG decodes data into a function of 2–17 blocks over 1–16
// registers, some of them parameters and some promoted (mutable). Every
// block gets a few movs, other definitions, uses and setjmp calls and a
// Br, CondBr or Ret terminator with arbitrary targets, so loops, joins,
// self-loops and unreachable blocks all occur.
func randomCopyCFG(data []byte) *ir.Func {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	nb := 2 + next()%16
	n := 1 + next()%16
	fn := &ir.Func{Name: "fuzz", NumRegs: n, Params: make([]ir.Param, next()%(n+1))}
	for r := next() % (n + 1); r > 0; r-- {
		fn.Promoted = append(fn.Promoted, ir.PromotedVar{Reg: next() % n})
	}
	reg := func() int { return next() % n }
	val := func() ir.Value {
		if next()%5 == 0 {
			return ir.Const(int64(next()))
		}
		return ir.Reg(reg())
	}
	for bi := 0; bi < nb; bi++ {
		b := fn.NewBlock(fmt.Sprint("b", bi))
		for k := next() % 8; k > 0; k-- {
			var in ir.Instr
			switch next() % 5 {
			case 0, 1:
				in = ir.Instr{Op: ir.OpMov, Dst: reg(), A: val()}
			case 2:
				in = ir.Instr{Op: ir.OpBin, ALU: ir.AAdd, Dst: reg(), A: val(), B: val()}
			case 3:
				in = ir.Instr{Op: ir.OpStore, Dst: -1, A: val(), B: val(), Size: 8}
			default:
				in = ir.Instr{Op: ir.OpCall, Callee: -1, Intr: builtins.Setjmp, Dst: reg(), Args: []ir.Value{val()}}
				if next()%2 == 0 {
					in.Intr, in.Args = builtins.Puts, []ir.Value{val(), val()}
				}
			}
			b.Ins = append(b.Ins, in)
		}
		var term ir.Instr
		switch next() % 3 {
		case 0:
			term = ir.Instr{Op: ir.OpBr, Dst: -1, Blk0: next() % nb}
		case 1:
			term = ir.Instr{Op: ir.OpCondBr, Dst: -1, A: val(), Blk0: next() % nb, Blk1: next() % nb}
		default:
			term = ir.Instr{Op: ir.OpRet, Dst: -1, A: val()}
		}
		b.Ins = append(b.Ins, term)
	}
	return fn
}

// FuzzCopyProp requires the dense copy propagations to rewrite random
// block graphs exactly as the map-based reference does, and to keep a
// function that defines every register before reading it that way.
func FuzzCopyProp(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00",
		"\x03\x05\x02\x01\x03\x04\x00\x01\x02\x00\x01\x01\x02\x03",
		"\x07\x0b\x03\x02\x05\x07\x06\x00\x03\x01\x04\x02\x02\x05\x01\x00\x06\x04\x01\x03",
		"\x0f\x0f\x05\x04\x01\x02\x03\x04\x07\x00\x01\x02\x01\x02\x03\x04\x00\x05\x06\x01\x09\x0a\x01\x02",
		// r0 is defined only in an unreachable block: the entry's
		// `ret r1` after `r1 = mov r0` reads r0 through the available
		// pair, where a def-dominates-use test would decline.
		"\xc4\x01\x12\x01'\x01\xf6\x055\x02\xd1\x02\x03^",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := randomCopyCFG(data)
		defined := fn.RegsDefBeforeUse()
		got, err := sameCopyProp(fn)
		if err != nil {
			t.Fatalf("%d blocks, %d registers: %v", len(fn.Blocks), fn.NumRegs, err)
		}
		if defined && !got.RegsDefBeforeUse() {
			t.Fatalf("a register is read before any write after the passes:\nbefore:\n%s\nafter:\n%s", fn, got)
		}
	})
}

// ---- Reference: the map-based available-copy passes ----
//
// The forms the dense copySet replaced, kept as the oracle: a map d→s per
// state and per block OUT, a kill that walks the whole map, a meet that
// copies and filters a map.

func refPropagateCopies(fn *ir.Func) {
	mutable := fn.MutableRegSet()
	copyOf := map[int]int{}
	sub := func(v *ir.Value) {
		if v.Kind == ir.ValReg {
			if s, ok := copyOf[v.Reg]; ok {
				v.Reg = s
			}
		}
	}
	for _, b := range fn.Blocks {
		clear(copyOf)
		for ii := range b.Ins {
			in := &b.Ins[ii]
			sub(&in.A)
			sub(&in.B)
			for ai := range in.Args {
				sub(&in.Args[ai])
			}
			if isSetjmpBarrier(in) {
				clear(copyOf)
				continue
			}
			if d := in.Dst; d >= 0 {
				delete(copyOf, d)
				for t, s := range copyOf {
					if s == d {
						delete(copyOf, t)
					}
				}
				if in.Op == ir.OpMov && in.A.Kind == ir.ValReg && !mutable[d] {
					copyOf[d] = in.A.Reg
				}
			}
		}
	}
}

func refCrossBlockCopyProp(fn *ir.Func) bool {
	if len(fn.Blocks) < 2 {
		return false
	}
	rpo := reversePostorder(fn)
	preds := predLists(fn)
	out := refCopyDataflow(fn, rpo, preds)
	changed := false
	for _, bi := range rpo {
		st := refMeetPreds(out, preds[bi], bi)
		b := fn.Blocks[bi]
		for ii := range b.Ins {
			in := &b.Ins[ii]
			changed = refSubstUses(in, st) || changed
			refCopyTransfer(in, st)
		}
	}
	return changed
}

func refSubstUses(in *ir.Instr, st map[int]int) bool {
	changed := false
	sub := func(v *ir.Value) {
		if v.Kind != ir.ValReg {
			return
		}
		r := v.Reg
		for hops := len(st); hops > 0; hops-- {
			s, ok := st[r]
			if !ok {
				break
			}
			r = s
		}
		if r != v.Reg {
			v.Reg = r
			changed = true
		}
	}
	sub(&in.A)
	sub(&in.B)
	for ai := range in.Args {
		sub(&in.Args[ai])
	}
	return changed
}

func refCopyTransfer(in *ir.Instr, st map[int]int) {
	if isSetjmpBarrier(in) {
		clear(st)
		return
	}
	d := in.Dst
	if d < 0 {
		return
	}
	delete(st, d)
	for t, s := range st {
		if s == d {
			delete(st, t)
		}
	}
	if in.Op == ir.OpMov && in.A.Kind == ir.ValReg && in.A.Reg != d {
		st[d] = in.A.Reg
	}
}

func refCopyDataflow(fn *ir.Func, rpo []int, preds [][]int) []map[int]int {
	out := make([]map[int]int, len(fn.Blocks))
	for {
		changed := false
		for _, bi := range rpo {
			st := refMeetPreds(out, preds[bi], bi)
			for ii := range fn.Blocks[bi].Ins {
				refCopyTransfer(&fn.Blocks[bi].Ins[ii], st)
			}
			if out[bi] == nil || !maps.Equal(out[bi], st) {
				out[bi] = st
				changed = true
			}
		}
		if !changed {
			return out
		}
	}
}

func refMeetPreds(out []map[int]int, preds []int, bi int) map[int]int {
	if bi == 0 {
		return map[int]int{}
	}
	var acc map[int]int
	for _, p := range preds {
		po := out[p]
		if po == nil {
			continue
		}
		if acc == nil {
			acc = maps.Clone(po)
			continue
		}
		for d, s := range acc {
			if ps, ok := po[d]; !ok || ps != s {
				delete(acc, d)
			}
		}
	}
	if acc == nil {
		acc = map[int]int{}
	}
	return acc
}
