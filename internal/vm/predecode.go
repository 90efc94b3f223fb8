package vm

import (
	"slices"

	"repro/internal/ctypes"
	"repro/internal/ir"
)

// This file implements the predecode layer of the interpreter: a one-time
// lowering of an ir.Program into a flat, execution-ready form that the
// per-step dispatch loop consumes directly.
//
// Predecoding performs, once per program instead of once per step:
//
//   - block flattening: each function's blocks become a single pc-indexed
//     instruction stream, so "advance" is pc++ and branches assign pc
//     directly (no Blocks[blk].Ins[ip] double indirection);
//   - branch resolution: OpBr/OpCondBr targets become absolute pc indices;
//   - operand resolution: the per-operand fields the eval kind-switch used
//     to chase through ir.Func/ir.Program at every step (frame object
//     offset/size/stack placement, global and string sizes, sign-extended
//     immediates) are resolved into a flat PVal;
//   - handler resolution: every instruction gets a handler function chosen
//     once from its opcode (see dispatch.go), so the per-step loop performs
//     one indirect call instead of walking the opcode switch;
//   - block compilation: every block head and call return site anchors a
//     compiled straight-line segment that runs as one dispatch (see
//     blocks.go); segments charge each constituent's own cost and step, so
//     they are invisible to the cycle/step tables;
//   - metadata liveness: each function's registers whose metadata some
//     instruction can read (FuncCode.MetaLive), the only ones whose
//     metadata the segments write;
//   - call-site numbering: every static call site (return sites, setjmp
//     sites) gets its ordinal, so the machine resolves site addresses with
//     an O(1) slice index instead of scanning the site map per call.
//
// A Code value depends only on the ir.Program — never on a Machine's memory
// layout (ASLR slides, seeds), so one predecoded program is shared by every
// machine that runs it, including the parallel harness fan-out. Code is
// immutable after Predecode and safe for concurrent use.
//
// Predecoding is pure lowering: one PIns per ir.Instr, identical dispatch
// semantics, identical cost charging. The golden determinism tests pin the
// resulting Cycles/Steps tables bit-for-bit.

// Code is the predecoded, execution-ready form of a program.
type Code struct {
	Funcs []FuncCode

	// NumRetSites and NumJmpSites are the static call-site counts; the
	// machine derives site addresses from the ordinals by arithmetic.
	NumRetSites int
	NumJmpSites int

	// JmpSites is the setjmp-site table: ordinal → resume point. Like the
	// ordinal counts it is program-derived layout computed once here and
	// shared by every machine; slides are applied per machine
	// (Machine.jmpSiteAddr / jmpSiteAt).
	JmpSites []JmpSite

	// Slide-independent data layout, computed once here instead of per
	// machine: byte offsets of each string literal within rodata and of
	// each global within the data segment, plus the segment extents. The
	// bases are aligned beyond any type alignment and ASLR slides are page
	// multiples, so base+slide+offset reproduces the per-machine addresses
	// bit for bit.
	StrOff       []uint64
	RodataBytes  uint64
	GlobalOff    []uint64
	GlobalsBytes int64

	// BlockSegs counts the block-compiled segments installed (0 when
	// predecoded with NoBlockCompile or AuditHooks; see blocks.go).
	BlockSegs int

	// ReadsMeta reports whether some instruction can consume register
	// metadata: a load or store with a protMask flag (derefCheck,
	// storeProt), an indirect call (the code-provenance check under the
	// transfer-protecting enforcers) or an intrinsic call (argMeta,
	// fortifyLimit). Without one, the segment executors skip metadata
	// maintenance altogether; with one, they maintain it only for the
	// registers in each function's MetaLive (see runSegment).
	ReadsMeta bool

	// AuditHooks records PredecodeOptions.AuditHooks. Only such code runs
	// the audit oracle's checks on every access, so NewShared rejects
	// Config.AuditSensitive without it.
	AuditHooks bool
}

// FuncCode is one function flattened to a pc-indexed instruction stream.
type FuncCode struct {
	Ins []PIns
	// BlockPC maps a block index to the pc of its first instruction.
	BlockPC []int32
	// NeedsRegClear marks functions where some register read is not
	// provably preceded by a write on every path (ir.Func.RegsDefBeforeUse;
	// parameters count as written, since pushFrame materializes them and
	// zero-fills any arity gap): their pooled register files must be
	// re-zeroed per activation. Most functions are proven clean and skip
	// the per-call clear entirely.
	NeedsRegClear bool
	// Segs maps a pc to the block-compiled segment anchored there (a
	// zero-length ref for non-entry slots; see blocks.go), as an
	// offset/length window into SegOps. Allocated whenever block
	// compilation ran, even if no segment qualified — the segment
	// trampoline indexes it for every function a run can enter. SegOps
	// pools every segment's flattened micro-ops contiguously so the
	// segment runner streams one dense array per function.
	Segs   []segRef
	SegOps []segOp
	// MetaLive holds the registers whose metadata some instruction of the
	// function can read (see metaLiveness). Computed with block
	// compilation, for the segment executors, which write metadata only
	// into these registers; nil when block compilation did not run.
	MetaLive ir.Bits
}

// PIns is one predecoded instruction. Hot fields are resolved copies of the
// ir.Instr; In points back to the original for the cold paths that need
// unresolved detail (intrinsic kinds, format strings).
//
// Field order is cache-conscious: the dispatch loop reads run first, and
// the hot handlers then read A/B and the packed scalar block, so the first
// two cache lines of a PIns cover an instruction's entire hot state; the
// cold call fields sit at the tail.
type PIns struct {
	// run is the handler resolved at predecode time from Op plus operand
	// shapes; the dispatch loop calls it directly. Block compilation
	// replaces it with hSeg on segment entry slots.
	run handler

	A, B PVal

	Dst      int32 // destination register; -1 when none
	Targ0    int32 // resolved branch target (OpBr, OpCondBr taken)
	Targ1    int32 // resolved branch target (OpCondBr fallthrough)
	Op       ir.Op
	Size     uint8 // load/store width
	ALU      ir.ALU
	CastChar bool  // OpCast truncates to a byte
	Scale    int64 // OpGEP index scale
	Off      int64 // OpGEP constant offset
	Flags    ir.Prot

	Blk, IP int32 // original (block, instr) position, for diagnostics
	SiteOrd int32 // return-site ordinal (calls) / jmp-site ordinal (builtins); -1 otherwise
	Callee  int32 // OpCall callee function index (< 0: intrinsic)

	Args []PVal // predecoded call/intrinsic argument list
	In   *ir.Instr
}

// JmpSite is one setjmp call site: the resume point longjmp transfers to
// and the register receiving setjmp's second return value. PC is the flat
// predecoded index of the instruction after the setjmp call.
type JmpSite struct {
	Fn  int32
	PC  int32
	Dst int32
}

// PVal is a predecoded operand: the ir.Value kind-switch with every
// program-constant lookup (frame object layout, global/string sizes) already
// performed. Machine-dependent bases (frame, global, string addresses) are
// still resolved at evaluation time — they differ per machine under ASLR.
// Size and ObjOff are uint32 (object sizes and frame offsets are far below
// 4 GiB) to keep the struct at 32 bytes — operand footprint is dispatch-loop
// cache pressure.
type PVal struct {
	Imm    uint64 // sign-extended constant / byte offset
	Size   uint32 // target object byte size (frame/global/string)
	ObjOff uint32 // frame object offset within its stack frame
	Reg    int32
	Index  int32
	Kind   ir.ValKind
	Unsafe bool // frame object lives on the unsafe (regular) stack
}

func predecodeVal(p *ir.Program, fn *ir.Func, v ir.Value) PVal {
	pv := PVal{
		Kind:  v.Kind,
		Reg:   int32(v.Reg),
		Index: int32(v.Index),
		Imm:   uint64(v.Imm),
	}
	switch v.Kind {
	case ir.ValFrame:
		obj := fn.Frame[v.Index]
		pv.Size = uint32(obj.Size)
		pv.ObjOff = uint32(obj.Offset)
		pv.Unsafe = obj.Unsafe
	case ir.ValGlobal:
		pv.Size = uint32(p.Globals[v.Index].Size)
	case ir.ValString:
		pv.Size = uint32(len(p.Strings[v.Index]) + 1)
	}
	return pv
}

// PredecodeOptions tunes the lowering.
type PredecodeOptions struct {
	// NoBlockCompile disables the block-compilation stage (blocks.go):
	// no basic block or trace is compiled into a segment, so every
	// instruction dispatches through the loop. The block
	// differential tests use this to check that block-compiled execution
	// is observationally identical (Output, Cycles, Steps, traps).
	NoBlockCompile bool

	// AuditHooks routes every load/store through the general handlers
	// (loadInto/storeFrom), where the Config.AuditSensitive provenance
	// checks live, instead of the inlined plain fast paths that skip them.
	// It also disables block compilation — segment bodies inline the same
	// plain fast paths.
	AuditHooks bool
}

// Predecode lowers a program into its execution-ready form with the default
// options (block compilation enabled). Site
// ordinals are assigned in program order (function, block, instruction) —
// the same order Machine.load registers site addresses in, which is what
// makes the ordinal→address tables line up.
func Predecode(p *ir.Program) *Code {
	return PredecodeWith(p, PredecodeOptions{})
}

// PredecodeWith lowers a program with explicit options.
func PredecodeWith(p *ir.Program, opt PredecodeOptions) *Code {
	c := &Code{Funcs: make([]FuncCode, len(p.Funcs)), AuditHooks: opt.AuditHooks}
	var retOrd, jmpOrd int32
	for fi, fn := range p.Funcs {
		fc := &c.Funcs[fi]
		fc.BlockPC = make([]int32, len(fn.Blocks))
		total := 0
		for bi, b := range fn.Blocks {
			fc.BlockPC[bi] = int32(total)
			total += len(b.Ins)
		}
		fc.Ins = make([]PIns, 0, total)
		for bi := range fn.Blocks {
			b := fn.Blocks[bi]
			for ii := range b.Ins {
				in := &b.Ins[ii]
				pi := PIns{
					Op:      in.Op,
					Size:    in.Size,
					ALU:     in.ALU,
					Dst:     int32(in.Dst),
					Blk:     int32(bi),
					IP:      int32(ii),
					SiteOrd: -1,
					Scale:   in.Scale,
					Off:     in.Off,
					Flags:   in.Flags,
					A:       predecodeVal(p, fn, in.A),
					B:       predecodeVal(p, fn, in.B),
					In:      in,
				}
				switch in.Op {
				case ir.OpLoad, ir.OpStore:
					c.ReadsMeta = c.ReadsMeta || in.Flags&protMask != 0
				case ir.OpBr:
					pi.Targ0 = fc.BlockPC[in.Blk0]
				case ir.OpCondBr:
					pi.Targ0 = fc.BlockPC[in.Blk0]
					pi.Targ1 = fc.BlockPC[in.Blk1]
				case ir.OpCast:
					pi.CastChar = in.Ty != nil && in.Ty.Kind == ctypes.KindChar
				case ir.OpCall:
					pi.Callee = int32(in.Callee)
					if in.Callee >= 0 {
						pi.SiteOrd = retOrd
						retOrd++
					} else {
						c.ReadsMeta = true
						pi.SiteOrd = jmpOrd
						jmpOrd++
						c.JmpSites = append(c.JmpSites, JmpSite{
							Fn: int32(fi), PC: fc.BlockPC[bi] + int32(ii) + 1, Dst: int32(in.Dst),
						})
					}
				case ir.OpICall:
					c.ReadsMeta = true
					pi.Callee = -1
					pi.SiteOrd = retOrd
					retOrd++
				}
				if len(in.Args) > 0 {
					pi.Args = make([]PVal, len(in.Args))
					for ai, a := range in.Args {
						pi.Args[ai] = predecodeVal(p, fn, a)
					}
				}
				pi.run = chooseHandler(&pi, opt.AuditHooks)
				fc.Ins = append(fc.Ins, pi)
			}
		}
		fc.NeedsRegClear = !fn.RegsDefBeforeUse()
	}
	c.NumRetSites = int(retOrd)
	c.NumJmpSites = int(jmpOrd)

	// Data layout. Offsets are computed against the absolute (unslid) bases
	// so alignment rounds exactly as the loader's address arithmetic did,
	// then rebased; any page-multiple slide preserves the result.
	c.StrOff = make([]uint64, len(p.Strings))
	saddr := uint64(rodataBase)
	for i, s := range p.Strings {
		c.StrOff[i] = saddr - rodataBase
		end := saddr + uint64(len(s)) + 1
		c.RodataBytes = end - rodataBase
		saddr = align8(end)
	}
	c.GlobalOff = make([]uint64, len(p.Globals))
	gaddr := uint64(globalBase)
	for i, g := range p.Globals {
		a := uint64(g.Type.Align())
		gaddr = (gaddr + a - 1) &^ (a - 1)
		c.GlobalOff[i] = gaddr - globalBase
		gaddr += uint64(g.Size)
	}
	c.GlobalsBytes = int64(gaddr - globalBase)

	// Block compilation runs after every function is predecoded — traces
	// inline direct-call continuations, so the trace compiler reads callee
	// instruction streams across function boundaries — and after the data
	// layout, which global-address GEPs fold in at compile time.
	// Every function's MetaLive is computed first, as a trace reads the
	// set of each function it crosses into.
	if !opt.NoBlockCompile && !opt.AuditHooks {
		var ml metaLiveness
		for fi, fn := range p.Funcs {
			c.Funcs[fi].MetaLive = ml.run(&c.Funcs[fi], fn.NumRegs)
		}
		tb := tracePool.Get().(*traceCompiler)
		for fi := range c.Funcs {
			c.BlockSegs += tb.compileBlocks(p, c, &c.Funcs[fi])
		}
		tb.release()
	}
	return c
}

// metaLiveness computes FuncCode.MetaLive, the registers whose metadata
// some instruction can read, reusing its buffers across the functions of a
// program. The seeds are the register operands whose metadata an
// instruction consumes or hands on beyond the function:
//
//   - the address of a flagged load or store (derefCheck);
//   - the value of a flagged store (storeProt);
//   - the value of a plain store to a safe-eligible frame object, whose
//     metadata goes into the safe stack's shadow and from there back into
//     the register a reload writes;
//   - the target of an indirect call (the code-provenance check);
//   - a returned value (the caller's destination register);
//   - every call or intrinsic argument (the callee's parameter registers,
//     argMeta, fortifyLimit).
//
// The closure runs backwards over the copies — mov, cast, addr and a GEP's
// base: when an instruction's destination is live, its source is too.
// Nothing else reads register metadata: a plain store outside the safe
// stack keeps none, and Bin, compares and branches discard it.
type metaLiveness struct {
	off  []int32 // CSR offsets of the copy edges, by destination
	src  []int32 // copy sources, grouped by destination
	work []int32 // live registers whose sources are not yet visited
}

// run returns the live set of fc, whose register file has nr registers.
// Operands outside the file are ignored.
func (ml *metaLiveness) run(fc *FuncCode, nr int) ir.Bits {
	live := ir.NewBits(nr)
	ml.off = slices.Grow(ml.off[:0], nr+2)[:nr+2]
	clear(ml.off)
	ml.work = ml.work[:0]
	edges := 0
	for i := range fc.Ins {
		in := &fc.Ins[i]
		switch in.Op {
		case ir.OpLoad:
			if in.Flags&protMask != 0 {
				ml.seed(live, nr, &in.A)
			}
		case ir.OpStore:
			if in.Flags&protMask != 0 {
				ml.seed(live, nr, &in.A)
				ml.seed(live, nr, &in.B)
			} else if in.A.Kind == ir.ValFrame && !in.A.Unsafe {
				ml.seed(live, nr, &in.B)
			}
		case ir.OpICall, ir.OpRet:
			ml.seed(live, nr, &in.A)
		}
		for a := range in.Args {
			ml.seed(live, nr, &in.Args[a])
		}
		if copyEdge(in, nr) {
			ml.off[in.Dst+2]++
			edges++
		}
	}
	if len(ml.work) == 0 {
		return live
	}
	// Counting sort of the edges by destination: after the prefix sum,
	// off[d+1] is where d's sources start; filling advances it to their end,
	// which leaves d's sources at src[off[d]:off[d+1]].
	for d := 2; d < len(ml.off); d++ {
		ml.off[d] += ml.off[d-1]
	}
	ml.src = slices.Grow(ml.src[:0], edges)[:edges]
	for i := range fc.Ins {
		if in := &fc.Ins[i]; copyEdge(in, nr) {
			ml.src[ml.off[in.Dst+1]] = in.A.Reg
			ml.off[in.Dst+1]++
		}
	}
	for len(ml.work) > 0 {
		d := ml.work[len(ml.work)-1]
		ml.work = ml.work[:len(ml.work)-1]
		for _, s := range ml.src[ml.off[d]:ml.off[d+1]] {
			if !live.Has(int(s)) {
				live.Add(int(s))
				ml.work = append(ml.work, s)
			}
		}
	}
	return live
}

// seed adds a register operand to the live set and the worklist.
func (ml *metaLiveness) seed(live ir.Bits, nr int, v *PVal) {
	if r := int(v.Reg); v.Kind == ir.ValReg && r >= 0 && r < nr && !live.Has(r) {
		live.Add(r)
		ml.work = append(ml.work, v.Reg)
	}
}

// copyEdge reports whether in copies the metadata of one register of the
// file into another: a mov, cast, addr or GEP of a register A operand.
func copyEdge(in *PIns, nr int) bool {
	switch in.Op {
	case ir.OpMov, ir.OpCast, ir.OpAddr, ir.OpGEP:
		return in.A.Kind == ir.ValReg && in.A.Reg >= 0 && int(in.A.Reg) < nr &&
			in.Dst >= 0 && int(in.Dst) < nr
	}
	return false
}
