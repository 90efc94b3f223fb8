package ir_test

// The word-at-a-time must-defined dataflow (MustDefinedIn) against the
// []bool round-robin form it replaced, kept here unchanged as the reference:
// bit for bit on every function of every bundled source, and on random
// block graphs whose domain sizes straddle word boundaries.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
	"repro/internal/workloads"
)

// refMustDefinedIn is the reference forward must-defined dataflow.
func refMustDefinedIn(f *ir.Func, n int, entry []bool, blockDefs func(b *ir.Block, out []bool)) [][]bool {
	nb := len(f.Blocks)
	in := make([][]bool, nb)
	for bi := range in {
		set := make([]bool, n)
		if bi != 0 {
			for i := range set {
				set[i] = true
			}
		}
		in[bi] = set
	}
	copy(in[0], entry)
	changed := true
	for changed {
		changed = false
		for bi, b := range f.Blocks {
			out := make([]bool, n)
			copy(out, in[bi])
			blockDefs(b, out)
			succs, ns := b.Succs()
			for _, sb := range succs[:ns] {
				for i := range out {
					if in[sb][i] && !out[i] {
						in[sb][i] = false
						changed = true
					}
				}
			}
		}
	}
	return in
}

// refRegDefs is the reference register-domain blockDefs callback.
func refRegDefs(b *ir.Block, out []bool) {
	for ii := range b.Ins {
		if d := b.Ins[ii].Dst; d >= 0 && d < len(out) {
			out[d] = true
		}
	}
}

// refParamSet is the reference register entry set.
func refParamSet(f *ir.Func) []bool {
	set := make([]bool, f.NumRegs)
	for i := range f.Params {
		if i < f.NumRegs {
			set[i] = true
		}
	}
	return set
}

// frameStores and refFrameStores are the promotion pass's frame-slot
// blockDefs callback in both forms: a block defines the slots it stores to.
func frameStores(b *ir.Block, gen ir.Bits) {
	for ii := range b.Ins {
		if ins := &b.Ins[ii]; ins.Op == ir.OpStore && ins.A.Kind == ir.ValFrame {
			gen.Add(ins.A.Index)
		}
	}
}

func refFrameStores(b *ir.Block, out []bool) {
	for ii := range b.Ins {
		if ins := &b.Ins[ii]; ins.Op == ir.OpStore && ins.A.Kind == ir.ValFrame {
			out[ins.A.Index] = true
		}
	}
}

// sameSets reports the first item below n where got and want disagree.
func sameSets(got []ir.Bits, want [][]bool, n int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d sets, want %d", len(got), len(want))
	}
	for bi := range want {
		for i := 0; i < n; i++ {
			if got[bi].Has(i) != want[bi][i] {
				return fmt.Errorf("block %d item %d: got %v, want %v", bi, i, got[bi].Has(i), want[bi][i])
			}
		}
	}
	return nil
}

// checkDataflows compares the register domain (entry = parameters) and
// the frame-slot domain (promotion's store callback) of every function of
// p against the reference.
func checkDataflows(t *testing.T, where string, p *ir.Program) {
	t.Helper()
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		nr, ns := f.NumRegs, len(f.Frame)
		if err := sameSets(f.MustDefinedIn(nr, f.ParamSet(), ir.RegDefs),
			refMustDefinedIn(f, nr, refParamSet(f), refRegDefs), nr); err != nil {
			t.Fatalf("%s %s: register must-defined: %v", where, f.Name, err)
		}
		if err := sameSets(f.MustDefinedIn(ns, nil, frameStores),
			refMustDefinedIn(f, ns, nil, refFrameStores), ns); err != nil {
			t.Fatalf("%s %s: frame-slot must-defined: %v", where, f.Name, err)
		}
	}
}

type source struct{ name, src string }

func bundledSources() []source {
	var out []source
	for _, set := range [][]workloads.Workload{workloads.Micro(), workloads.Spec(), workloads.Phoronix()} {
		for _, w := range set {
			out = append(out, source{w.Name, w.Src})
		}
	}
	for _, set := range [][]workloads.WebPage{workloads.WebStack(), workloads.WebServe()} {
		for _, w := range set {
			out = append(out, source{w.Name, w.Src})
		}
	}
	return out
}

// TestDataflowMatchesReferenceOnCorpus checks every function of every
// bundled source after lowering (with and without promotion) and after the
// full compile under each backend.
func TestDataflowMatchesReferenceOnCorpus(t *testing.T) {
	for _, s := range bundledSources() {
		for _, promote := range []bool{true, false} {
			f, err := parser.Parse(s.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := sema.Check(f); err != nil {
				t.Fatal(err)
			}
			p, err := irgen.LowerWith(f, irgen.Options{PromoteRegisters: promote})
			if err != nil {
				t.Fatal(err)
			}
			checkDataflows(t, fmt.Sprintf("%s/lowered/promote=%v", s.name, promote), p)
			for _, bk := range []string{"vanilla", "cps", "cpi", "pac"} {
				cfg, err := core.ConfigForName(bk)
				if err != nil {
					t.Fatal(err)
				}
				cfg.NoPromote = !promote
				prog, err := core.Compile(s.src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkDataflows(t, fmt.Sprintf("%s/%s/promote=%v", s.name, bk, promote), prog.IR)
			}
		}
	}
}

// TestDataflowAllocs pins the dataflow's allocations on the largest
// function of 403.gcc under cpi: one backing array plus one slice of set
// headers per call, however many blocks and passes.
func TestDataflowAllocs(t *testing.T) {
	w, ok := workloads.ByName(workloads.Spec(), "403.gcc")
	if !ok {
		t.Fatal("403.gcc not found")
	}
	prog, err := core.Compile(w.Src, core.Config{Protect: core.CPI})
	if err != nil {
		t.Fatal(err)
	}
	var f *ir.Func
	for _, fn := range prog.IR.Funcs {
		if f == nil || len(fn.Blocks) > len(f.Blocks) {
			f = fn
		}
	}
	t.Logf("%s: %d blocks, %d registers", f.Name, len(f.Blocks), f.NumRegs)
	entry := f.ParamSet()
	if got := testing.AllocsPerRun(20, func() { f.MustDefinedIn(f.NumRegs, entry, ir.RegDefs) }); got != 2 {
		t.Errorf("MustDefinedIn: %v allocs per call, want 2", got)
	}
}

// dataflowDomains straddle the 64-item word boundaries.
var dataflowDomains = [...]int{0, 1, 63, 64, 65, 127, 128, 129, 200}

// randomCFG decodes data into a function of 1–40 blocks over a register
// domain drawn from dataflowDomains. Every block gets a few instructions
// that read and write registers (a few of them outside the domain) and a
// Br, CondBr or Ret terminator with arbitrary targets, so self-loops,
// CondBrs with both arms on one block, and unreachable blocks all occur.
func randomCFG(data []byte) *ir.Func {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	nb := 1 + next()%40
	n := dataflowDomains[next()%len(dataflowDomains)]
	f := &ir.Func{Name: "fuzz", NumRegs: n, Params: make([]ir.Param, next()%8)}
	reg := func() int { return next()*(n+8)/256 - 4 } // -4 .. n+3
	val := func() ir.Value {
		if next()%4 == 0 {
			return ir.Const(int64(next()))
		}
		return ir.Reg(reg())
	}
	for bi := 0; bi < nb; bi++ {
		b := f.NewBlock(fmt.Sprint("b", bi))
		for k := next() % 6; k > 0; k-- {
			ins := ir.Instr{Op: ir.OpMov, Dst: reg(), A: val(), B: val()}
			if next()%4 == 0 {
				ins.Op, ins.Args = ir.OpCall, []ir.Value{val(), val()}
			}
			b.Ins = append(b.Ins, ins)
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
	return f
}

func FuzzDataflow(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00",
		"\x05\x04\x02\x01\x80\x40\x01\x02\x01\x01\x00",
		"\x27\x08\x07\x05\xff\x20\x60\x03\x90\x01\x03",
		"\x10\x07\x03\x03\xe0\x10\xf0\x01\x01\x05\x07\x02\xc0\x11",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := randomCFG(data)
		n := fn.NumRegs
		if err := sameSets(fn.MustDefinedIn(n, fn.ParamSet(), ir.RegDefs),
			refMustDefinedIn(fn, n, refParamSet(fn), refRegDefs), n); err != nil {
			t.Fatalf("must-defined (%d blocks, %d registers): %v", len(fn.Blocks), n, err)
		}
	})
}
