package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/workloads"
)

// srcBrChainGlobals exercises the segment shapes whose accounting is
// easiest to get wrong: nested ifs with empty arms lower to chains of
// empty blocks holding only a br (folded into the next op, or kept as an
// skBr when another br follows), and global-array indexing lowers to
// GEP global, reg (skGEPGR).
const srcBrChainGlobals = `
int g[16];
int h[8];
int main(void) {
	int s = 0;
	for (int i = 0; i < 16; i++) {
		g[i] = i * 3;
		if (i > 4) {
			if (i > 8) {
				if (i > 12) {
				}
			}
		}
		h[i & 7] = h[i & 7] + g[i];
	}
	for (int i = 0; i < 16; i++) {
		if (g[i] > 20) {
		} else {
			s += g[i];
		}
		s += h[i & 7];
	}
	return s & 255;
}`

// srcSegShapes exercises the widened segment shapes: computed-index word
// loads and stores through global arrays (GEP global, reg), a pointer
// parameter (GEP reg, reg) and constant indices off it (GEP reg, const),
// each fused with the load or store it addresses; const ⊗ reg Bin ops
// (c - x, c << x); and every ALU operator the executor inlines beyond
// add/sub and the comparisons. Every divisor is non-zero. Register
// promotion is what puts a stored value in a register ahead of its GEP,
// so the program is compiled promoted.
const srcSegShapes = `
int g[16];
int a[8];
int fill(int *p, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		int v = (i * 7) ^ (i << 2);
		p[i] = v;
		s += p[i] | (s & 12);
	}
	p[2] = s;
	return s + p[2] + p[1] * p[3];
}
int main(void) {
	int s = 0;
	for (int i = 0; i < 16; i++) {
		int v = 100 - i;
		g[i] = v;
		s += g[i] / (i + 1) + g[i] % 5;
		s += (1 << (i & 7)) >> 1;
		s = s ^ (s >> 3);
	}
	s += fill(a, 8);
	return s & 255;
}`

// srcByteGlobals exercises the byte and global-scalar shapes: casts of a
// register to char and back to int (skCastR; the char cast's result is
// used unstored, so its truncation shows), byte stores of a register and of a constant
// through a pointer (skStoreRegB), byte loads through it (skLoadRegB), and
// word loads and stores of global scalars (skLoadGlobW8, skStoreGlobW8),
// the stores of a register and of a constant.
const srcByteGlobals = `
char buf[16];
int total;
int last;
int main(void) {
	char *p = buf;
	for (int i = 0; i < 12; i++) {
		int v = (char)(i * 37 + total);
		p[i] = v;
		total = total + v + p[i];
		last = 7;
	}
	p[3] = 120;
	last = total;
	return (total ^ total >> 8 ^ p[3] ^ last) & 255;
}`

// segCensus tallies segment ops: by kind, the folded branches, and the
// Bin ops whose operator is neither add/sub nor a comparison (the
// operators that left the executor before it inlined the whole ALU).
type segCensus struct {
	kinds    map[uint8]int
	folded   int
	otherALU int
}

// segOpCensus takes the census of the segments of predecoded programs.
func segOpCensus(codes ...*Code) segCensus {
	n := segCensus{kinds: map[uint8]int{}}
	for _, c := range codes {
		for fi := range c.Funcs {
			for _, op := range c.Funcs[fi].SegOps {
				n.kinds[op.kind]++
				if op.pre {
					n.folded++
				}
				switch op.kind {
				case skBinRR, skBinRC, skBinCR:
					if op.alu != ir.AAdd && op.alu != ir.ASub && !isCmp(op.alu) {
						n.otherALU++
					}
				}
			}
		}
	}
	return n
}

// TestSegmentBudgetSweep runs each program to every possible step budget
// with block compilation on and off and requires identical trap kind,
// steps, cycles and reported PC: a budget that runs out on a folded
// branch's own step must report the branch, one that runs out on the op
// after it must have charged the branch's cycles, and one that runs out
// between the constituents of an address-mode pair must have run the GEP
// alone. SafeStack arms the segment executors' metadata maintenance (the
// global GEP bounds); PIE slides the data segment under the compile-time
// global offsets; SFI isolation charges the plain stores' masking.
func TestSegmentBudgetSweep(t *testing.T) {
	var codes []*Code
	for _, s := range []struct {
		src  string
		opts irgen.Options
	}{
		{srcBrChainGlobals, irgen.Options{}},
		{srcSegShapes, irgen.Options{PromoteRegisters: true}},
		{srcByteGlobals, irgen.Options{PromoteRegisters: true}},
	} {
		p := compileWith(t, s.src, s.opts)
		blockCode := PredecodeWith(p, PredecodeOptions{})
		plainCode := PredecodeWith(p, PredecodeOptions{NoBlockCompile: true})
		codes = append(codes, blockCode)
		for _, cfg := range []Config{{}, {Protect: backend.SafeStack}, {ASLR: true, PIE: true, Seed: 7}, {Isolation: IsoSFI}} {
			full := runCode(t, p, plainCode, cfg)
			if full.Trap != TrapExit {
				t.Fatalf("full run: trap %v (%v)", full.Trap, full.Err)
			}
			for budget := int64(1); budget <= full.Steps+1; budget++ {
				cfg.MaxSteps = budget
				b := runCode(t, p, blockCode, cfg)
				n := runCode(t, p, plainCode, cfg)
				if b.Trap != n.Trap || b.Steps != n.Steps || b.Cycles != n.Cycles ||
					b.ExitCode != n.ExitCode || b.Err.PC != n.Err.PC {
					t.Fatalf("%+v: blocks %v steps=%d cycles=%d pc=%s; noblocks %v steps=%d cycles=%d pc=%s",
						cfg, b.Trap, b.Steps, b.Cycles, b.Err.PC, n.Trap, n.Steps, n.Cycles, n.Err.PC)
				}
			}
		}
	}
	// The sweep is only as strong as the shapes the programs compile to.
	n := segOpCensus(codes...)
	if n.folded == 0 || n.otherALU == 0 {
		t.Errorf("segments hold %d folded branches and %d non-add/sub/compare Bin ops; the sweep needs both", n.folded, n.otherALU)
	}
	for _, k := range []uint8{skBr, skGEPGR, skBinCR,
		skPairGEPRRLoad, skPairGEPRCLoad, skPairGEPGRLoad,
		skPairGEPRRStore, skPairGEPRCStore, skPairGEPGRStore,
		skCastR, skLoadRegB, skStoreRegB, skLoadGlobW8, skStoreGlobW8} {
		if n.kinds[k] == 0 {
			t.Errorf("no segment op of kind %d; the sweep needs every widened shape", k)
		}
	}
}

// TestSegmentPairFaults makes the second constituent of each address-mode
// pair fault: a load or store through a null base plus an index (register
// or constant) and through a global indexed far out of its segment. It
// makes the byte executors fault too: a byte load and a byte store through
// a null pointer, and a byte store into a string literal's read-only page.
// Each fault is raised on the slow path, so the blocks run must report the
// same trap, message, pc, steps and cycles as the dispatch loop.
func TestSegmentPairFaults(t *testing.T) {
	const unmapped, readOnly = "unmapped address", "write of non-writable page"
	cases := []struct {
		src   string
		kind  uint8
		fault string
	}{
		{`
int get(int *p, int i) { return p[i]; }
int main(void) { int *z = 0; return get(z, 3); }`, skPairGEPRRLoad, unmapped},
		{`
int put(int *p, int i) { p[i] = i; return 0; }
int main(void) { int *z = 0; return put(z, 3); }`, skPairGEPRRStore, unmapped},
		{`
int get(int *p) { return p[2]; }
int main(void) { int *z = 0; return get(z); }`, skPairGEPRCLoad, unmapped},
		{`
int put(int *p, int v) { p[2] = v; return 0; }
int main(void) { int *z = 0; return put(z, 5); }`, skPairGEPRCStore, unmapped},
		{`
int g[4];
int main(void) { int i = 1 << 40; return g[i]; }`, skPairGEPGRLoad, unmapped},
		{`
int g[4];
int main(void) { int i = 1 << 40; int v = 9; g[i] = v; return 0; }`, skPairGEPGRStore, unmapped},
		{`
int get(char *p) { return p[3]; }
int main(void) { char *z = 0; return get(z); }`, skLoadRegB, unmapped},
		{`
int put(char *p, int v) { p[3] = (char)v; return 0; }
int main(void) { char *z = 0; return put(z, 5); }`, skStoreRegB, unmapped},
		{`
int put(char *p, int v) { p[1] = (char)v; return p[0]; }
int main(void) { return put("hello", 97); }`, skStoreRegB, readOnly},
	}
	for i, c := range cases {
		p := compileWith(t, c.src, irgen.Options{PromoteRegisters: true})
		blockCode := PredecodeWith(p, PredecodeOptions{})
		if segOpCensus(blockCode).kinds[c.kind] == 0 {
			t.Fatalf("program %d compiled no op of kind %d", i, c.kind)
		}
		b := runCode(t, p, blockCode, Config{})
		n := runCode(t, p, PredecodeWith(p, PredecodeOptions{NoBlockCompile: true}), Config{})
		if b.Trap != TrapSegFault || n.Trap != TrapSegFault {
			t.Fatalf("program %d: trap blocks=%v noblocks=%v, want %v", i, b.Trap, n.Trap, TrapSegFault)
		}
		if b.Err.PC != n.Err.PC || b.Steps != n.Steps || b.Cycles != n.Cycles {
			t.Fatalf("program %d: blocks pc=%s steps=%d cycles=%d; noblocks pc=%s steps=%d cycles=%d",
				i, b.Err.PC, b.Steps, b.Cycles, n.Err.PC, n.Steps, n.Cycles)
		}
		if !strings.Contains(b.Err.Msg, c.fault) || b.Err.Msg != n.Err.Msg {
			t.Fatalf("program %d: fault blocks %q, noblocks %q; want %q", i, b.Err.Msg, n.Err.Msg, c.fault)
		}
	}
}

// fallbackShape reports whether an instruction is one of the shapes the
// segments inline because they dominated the serving pages' handler
// fallbacks: a cast of a register, a plain 1-byte load or store through a
// register, and a plain word load or store whose address is a global, the
// stores of a register or constant value.
func fallbackShape(in *PIns) bool {
	plainAddr := in.Flags&protMask == 0 &&
		(in.Size == 1 && in.A.Kind == ir.ValReg || in.Size == 8 && in.A.Kind == ir.ValGlobal)
	switch in.Op {
	case ir.OpCast:
		return in.A.Kind == ir.ValReg
	case ir.OpLoad:
		return plainAddr
	case ir.OpStore:
		return plainAddr && (in.B.Kind == ir.ValReg || in.B.Kind == ir.ValConst)
	}
	return false
}

// benchedProtections are the four backends the benchmark runs.
var benchedProtections = []backend.Protection{backend.Vanilla, backend.CPS, backend.CPI, backend.PAC}

// workloadSources maps every bundled workload and web page to its source.
func workloadSources() map[string]string {
	srcs := map[string]string{}
	for _, set := range [][]workloads.Workload{workloads.Micro(), workloads.Spec(), workloads.Phoronix()} {
		for _, w := range set {
			srcs[w.Name] = w.Src
		}
	}
	for _, pg := range append(workloads.WebStack(), workloads.WebServe()...) {
		srcs[pg.Name] = pg.Src
	}
	return srcs
}

// compileProtected compiles src as core.Compile does under prot.
func compileProtected(t *testing.T, src string, prot backend.Protection) *ir.Program {
	t.Helper()
	p := compileWith(t, src, irgen.Options{PromoteRegisters: true})
	if bk := prot.Backend(); bk != nil {
		pt := analysis.SolvePointsTo(p)
		instrument.SafeStack(p)
		instrument.WithBackend(p, bk, instrument.Opts{PointsTo: pt})
	}
	return p
}

// TestFallbackShapesInline compiles every workload source as core.Compile
// does under vanilla, cps, cpi and pac and requires that no segment op
// whose instruction has a fallbackShape stays skGeneric, except the op a
// trace cut at segMaxOps ends in. It guards makeSegOp against silently
// sending a shape back to its handler.
func TestFallbackShapesInline(t *testing.T) {
	inline := map[uint8]int{}
	for name, src := range workloadSources() {
		for _, prot := range benchedProtections {
			p := compileProtected(t, src, prot)
			c := PredecodeWith(p, PredecodeOptions{})
			for fi := range c.Funcs {
				for _, op := range c.Funcs[fi].SegOps {
					switch {
					case !fallbackShape(op.in):
					case op.kind != skGeneric:
						inline[op.kind]++
					case op.k != segMaxOps-1:
						t.Errorf("%s/%v: %s op %d (pc %d) stays generic", name, prot, p.Funcs[fi].Name, op.in.Op, op.pc)
					}
				}
			}
		}
	}
	for _, k := range []uint8{skCastR, skLoadRegB, skStoreRegB, skLoadGlobW8, skStoreGlobW8} {
		if inline[k] == 0 {
			t.Errorf("no workload compiled an op of kind %d; the census would be vacuous for it", k)
		}
	}
}

// TestSegmentPairMetadata keeps the address of each global GEP pair live
// past the pair: under cpi the loop casts it to a pointer to function
// pointers and stores and loads a code pointer one word further on, and
// both protected accesses check that address against the bounds the GEP
// wrote into its register's metadata. A pair head that skipped its
// metadata write would fail those checks, so the blocks run must exit like
// the dispatch loop, with equal steps and cycles.
func TestSegmentPairMetadata(t *testing.T) {
	const src = `
int g[8];
int one(void) { return 1; }
int main(void) {
	int s = 0;
	for (int i = 0; i < 4; i++) {
		int v = i + 1;
		int *p = &g[2 * i];
		*p = v;
		int (**fp)(void) = (int (**)(void))p;
		fp[1] = one;
	}
	for (int i = 0; i < 4; i++) {
		int *q = &g[2 * i];
		s += *q;
		int (**fq)(void) = (int (**)(void))q;
		s += fq[1]();
	}
	return s;
}`
	p := compileWith(t, src, irgen.Options{PromoteRegisters: true})
	instrument.SafeStack(p)
	instrument.WithBackend(p, backend.CPI.Backend(), instrument.Opts{})
	blockCode := PredecodeWith(p, PredecodeOptions{})
	if n := segOpCensus(blockCode); n.kinds[skPairGEPGRLoad] == 0 || n.kinds[skPairGEPGRStore] == 0 {
		t.Fatal("program compiled no global GEP load and store pairs")
	}
	cfg := Config{Protect: backend.CPI, DEP: true}
	b := runCode(t, p, blockCode, cfg)
	n := runCode(t, p, PredecodeWith(p, PredecodeOptions{NoBlockCompile: true}), cfg)
	for _, r := range []*Result{b, n} {
		if r.Trap != TrapExit || r.ExitCode != 14 {
			t.Fatalf("blocks %v exit %d (%v); noblocks %v exit %d (%v); want exit 14",
				b.Trap, b.ExitCode, b.Err, n.Trap, n.ExitCode, n.Err)
		}
	}
	if b.Steps != n.Steps || b.Cycles != n.Cycles {
		t.Fatalf("blocks steps=%d cycles=%d; noblocks steps=%d cycles=%d", b.Steps, b.Cycles, n.Steps, n.Cycles)
	}
}

// aluProgram builds main() { return a op b; } around one Bin op of the
// given segment shape: skBinRR reads both operands from registers, skBinRC
// keeps b an immediate and skBinCR keeps a an immediate.
func aluProgram(op ir.ALU, shape uint8, a, b int64) *ir.Program {
	f := &ir.Func{Name: "main", Ret: ctypes.Int, NumRegs: 3, Promoted: []ir.PromotedVar{
		{Reg: 0, Name: "a", Type: ctypes.Int}, {Reg: 1, Name: "b", Type: ctypes.Int}}}
	blk := f.NewBlock("entry")
	blk.Emit(ir.Instr{Op: ir.OpMov, Dst: 0, A: ir.Const(a)})
	blk.Emit(ir.Instr{Op: ir.OpMov, Dst: 1, A: ir.Const(b)})
	x, y := ir.Reg(0), ir.Reg(1)
	switch shape {
	case skBinRC:
		y = ir.Const(b)
	case skBinCR:
		x = ir.Const(a)
	}
	blk.Emit(ir.Instr{Op: ir.OpBin, ALU: op, Dst: 2, A: x, B: y})
	blk.Emit(ir.Instr{Op: ir.OpRet, Dst: -1, A: ir.Reg(2)})
	return &ir.Program{Funcs: []*ir.Func{f}}
}

// TestSegmentALUEdgeCases pins the segment executor's inline ALU to the
// handlers' aluEval and to C-on-two's-complement semantics at the edges:
// the overflowing MinInt64 / -1 and MinInt64 % -1, truncating division of
// negative operands, shift counts taken mod 64 (0, 63, 64, 65, negative),
// arithmetic right shift, and the zero-divisor trap. Every case runs under
// all three Bin shapes, blocks vs NoBlockCompile.
func TestSegmentALUEdgeCases(t *testing.T) {
	const minInt = math.MinInt64
	cases := []struct {
		op   ir.ALU
		a, b int64
		want int64
		trap bool // division by zero
	}{
		{ir.ADiv, minInt, -1, minInt, false},
		{ir.ARem, minInt, -1, 0, false},
		{ir.AMul, minInt, -1, minInt, false},
		{ir.AMul, 1 << 32, 1 << 32, 0, false},
		{ir.AMul, -3, 7, -21, false},
		{ir.ADiv, -7, 2, -3, false},
		{ir.ARem, -7, 2, -1, false},
		{ir.ADiv, 7, -2, -3, false},
		{ir.ARem, 7, -2, 1, false},
		{ir.ADiv, -7, -2, 3, false},
		{ir.ARem, -7, -2, -1, false},
		{ir.ADiv, 5, 0, 0, true},
		{ir.ARem, 5, 0, 0, true},
		{ir.ADiv, minInt, 0, 0, true},
		{ir.AShl, 3, 0, 3, false},
		{ir.AShl, 1, 63, minInt, false},
		{ir.AShl, 3, 64, 3, false},
		{ir.AShl, 3, 65, 6, false},
		{ir.AShl, 1, -1, minInt, false},
		{ir.AShr, -8, 0, -8, false},
		{ir.AShr, minInt, 63, -1, false},
		{ir.AShr, -8, 64, -8, false},
		{ir.AShr, -8, 65, -4, false},
		{ir.AShr, 8, -1, 0, false},
		{ir.AShr, -1, -1, -1, false},
		{ir.AAnd, -1, 0xff, 0xff, false},
		{ir.AOr, minInt, 1, minInt + 1, false},
		{ir.AXor, -1, 5, -6, false},
		{ir.AAdd, math.MaxInt64, 1, minInt, false},
		{ir.ASub, minInt, 1, math.MaxInt64, false},
		{ir.ALt, -1, 0, 1, false},
		{ir.ANe, minInt, minInt, 0, false},
	}
	for _, c := range cases {
		for _, shape := range []uint8{skBinRR, skBinRC, skBinCR} {
			p := aluProgram(c.op, shape, c.a, c.b)
			if err := p.Verify(); err != nil {
				t.Fatal(err)
			}
			blockCode := PredecodeWith(p, PredecodeOptions{})
			found := false
			for _, op := range blockCode.Funcs[0].SegOps {
				kind := op.kind
				switch kind { // add/sub feeding the return merge into a pair
				case skPairBinRCRet:
					kind = skBinRC
				case skPairBinRRRet:
					kind = skBinRR
				}
				found = found || (kind == shape && op.alu == c.op)
			}
			if !found {
				t.Fatalf("alu %d shape %d: the Bin op did not compile to its segment shape", c.op, shape)
			}
			b := runCode(t, p, blockCode, Config{})
			n := runCode(t, p, PredecodeWith(p, PredecodeOptions{NoBlockCompile: true}), Config{})
			name := fmt.Sprintf("alu %d shape %d (%d, %d)", c.op, shape, c.a, c.b)
			if b.Trap != n.Trap || b.ExitCode != n.ExitCode || b.Cycles != n.Cycles ||
				b.Steps != n.Steps || b.Err.PC != n.Err.PC {
				t.Errorf("%s: blocks %v=%d cycles=%d steps=%d pc=%s; noblocks %v=%d cycles=%d steps=%d pc=%s",
					name, b.Trap, b.ExitCode, b.Cycles, b.Steps, b.Err.PC,
					n.Trap, n.ExitCode, n.Cycles, n.Steps, n.Err.PC)
			}
			switch {
			case c.trap && b.Trap != TrapDivZero:
				t.Errorf("%s: trap %v, want %v", name, b.Trap, TrapDivZero)
			case !c.trap && (b.Trap != TrapExit || b.ExitCode != c.want):
				t.Errorf("%s: %v %d, want exit %d", name, b.Trap, b.ExitCode, c.want)
			}
		}
	}
}

// runCode runs main on a fresh machine over a given predecoding.
func runCode(t *testing.T, p *ir.Program, c *Code, cfg Config) *Result {
	t.Helper()
	m, err := NewShared(p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run("main")
}

// TestSegOpSize pins the segment micro-op at one 64-byte cache line, the
// size runSegment's op stream was tuned against; growing it must be a
// deliberate decision, like TestPInsSize's pin of PIns.
func TestSegOpSize(t *testing.T) {
	if got := unsafe.Sizeof(segOp{}); got != 64 {
		t.Errorf("unsafe.Sizeof(segOp) = %d, want 64", got)
	}
}
