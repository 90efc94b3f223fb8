package vm

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/sps"
)

// This file implements the block-compilation stage of predecode: after
// handler resolution, every basic-block head (and every call return site)
// anchors a straight-line segment — the block body, extended across
// unconditional branches into a trace — that executes as ONE dispatch-loop
// round trip. Each constituent is flattened at compile time into a segOp
// micro-op with its operand fields pre-extracted (register numbers,
// immediates, pre-summed frame and global offsets), its own pc, and its
// step offset k from the trace's entry constituent. The segment runner
// (runSegment) streams through that dense array instead of chasing
// PIns-stride records, holds the frame's register file and the cycle delta
// in locals across the body, evaluates every ALU operator of the register
// and constant Bin shapes inline (division behind an outlined zero-divisor
// trap), and inlines the page-translation-cache hit paths of the hottest
// operand shapes; only control-flow joins, traps and uncompiled code return
// to dispatch. mergePairs fuses the hottest adjacent shapes — compare +
// branch, add/sub + call/return, GEP + the word load/store through its
// fresh address — into one op each. Trace-extending unconditional
// branches cost no op of their own: foldBranches drops them and marks the
// following op, which charges the branch in front of itself. A trampoline
// at segment exit chains directly into the next segment (the target of a
// terminal branch, a callee entry, a return continuation) without
// surfacing to the dispatch loop at all, charging exactly the bookkeeping
// the loop would have.
//
// Block compilation is pure dispatch elimination: every constituent,
// folded branches included, charges its own Cycles in original order and
// counts as one step; the runner derives each activation's step headroom
// once at entry and compares every op's k against it, so budget traps fire
// at the same step with the same pc, and the memory semantics are those of
// the per-instruction reference handlers — the golden Cycles/Steps tables
// and every trap outcome are bit-identical with
// PredecodeOptions.NoBlockCompile. The block differential suite pins this.
//
// Entry slots: installing a segment replaces only the entry slot's run
// handler (with hSeg); every slot keeps its predecoded fields, so segOps
// re-resolve each constituent's own handler (chooseHandler) at compile
// time, and branch targets that land mid-segment execute their slot's
// handler through the dispatch loop.
//
// Config independence: a Code is shared by machines with different
// vm.Configs and ASLR slides (NewShared), so segments never bake in
// safe-stack/SFI/SoftBound/cost decisions or machine addresses — those are
// read from the running machine, like the handlers they replace.

// segMaxOps caps a trace's constituent count so pathological single-block
// functions cannot inflate predecode output; a trace cut short ends in its
// last constituent's own handler, which hands the next pc to the dispatch
// loop mid-block.
const segMaxOps = 256

// segOp kinds: the shape-specialized constituent executors runSegment
// inlines — segments are the VM's only shape-specialized tier. Everything
// else runs through its own per-opcode handler (skGeneric).
const (
	skGeneric uint8 = iota
	skBinRR         // reg ⊗ reg
	skBinRC         // reg ⊗ const
	skBinCR         // const ⊗ reg (imm = A)
	skMovR
	skMovC
	skGEPRR       // base reg + index reg (aux = scale, imm = offset)
	skGEPRC       // base reg + constant (imm = whole precomputed offset)
	skGEPGR       // global + index reg (aux = scale, imm = slide-free offset)
	skLoadRegW8   // plain word load, register address
	skLoadFrameW8 // plain word load, safe-eligible frame object
	skStoreRegW8
	skStoreFrameW8
	skBr      // trace-extending unconditional branch not folded (a br follows)
	skCondBrX // trace-extending branch on a register: fall-through arm is the
	// next op, taken arm exits the activation early (imm = taken, aux =
	// fall-through)
	skRet  // terminal return (retFinish invoked directly)
	skCall // direct call passing only registers and constants; mid-trace
	// when the callee's entry continuation is inlined into the trace

	// Merged pairs (mergePairs): the head executor runs both constituents —
	// charging each its own step, cycle and budget check — and skips the
	// second slot, halving loop and switch traffic on the hottest adjacent
	// shapes. The second segOp stays in place unmodified; the merged body
	// reads its fields directly.
	skPairCmpRCBrX  // reg-const compare feeding a trace-extending branch
	skPairCmpRRBrX  // reg-reg compare feeding a trace-extending branch
	skPairBinRCCall // add/sub reg-const feeding a direct call
	skPairBinRCRet  // add/sub reg-const whose fresh result is returned
	skPairBinRRRet  // add/sub reg-reg whose fresh result is returned

	// Address-mode pairs: a GEP whose fresh address is the very next plain
	// word load's or store's address register (skLoadRegW8/skStoreRegW8).
	// The store kinds follow the load kinds in the same GEP-shape order
	// (gepPair relies on it).
	skPairGEPRRLoad
	skPairGEPRCLoad
	skPairGEPGRLoad
	skPairGEPRRStore
	skPairGEPRCStore
	skPairGEPGRStore
)

// segOp is one flattened constituent of a compiled segment. The hot kinds
// read only the pre-extracted fields; in and h serve the generic kind and
// the slow paths of the specialized ones. pc locates the constituent in its
// own function's stream (traces cross into callees), k counts the
// constituents before it since the trace's entry, folded branches included.
type segOp struct {
	kind uint8
	alu  ir.ALU
	pre  bool  // a folded trace-extending br (at brPC) runs first
	aReg int32 // A register / skRet value source / skCall callee
	bReg int32 // B register (-1: imm; -2: slow operand via in)
	dst  int32
	pc   int32
	k    int32
	brPC int32
	imm  uint64 // immediate / pre-summed frame or global offset / branch target / site ordinal
	aux  uint64 // GEP scale / CondBr fallthrough target
	in   *PIns
	h    handler
}

// segRef locates one compiled straight-line trace inside FuncCode.SegOps;
// n == 0 means no segment is anchored at the slot.
type segRef struct {
	off, n int32
}

// makeSegOp flattens the slot at pc into the trace's k-th micro-op,
// selecting by operand shape the executors runSegment inlines; every other
// shape keeps its per-opcode handler. The generic handler is re-resolved
// rather than read from in.run, which is hSeg on entry slots.
func makeSegOp(p *ir.Program, c *Code, in *PIns, pc, k int) segOp {
	op := segOp{kind: skGeneric, pc: int32(pc), k: int32(k), in: in, h: chooseHandler(in, false)}
	switch in.Op {
	case ir.OpBin:
		switch {
		case in.A.Kind == ir.ValReg && in.B.Kind == ir.ValReg:
			op.kind, op.alu, op.aReg, op.bReg, op.dst = skBinRR, in.ALU, in.A.Reg, in.B.Reg, in.Dst
		case in.A.Kind == ir.ValReg && in.B.Kind == ir.ValConst:
			op.kind, op.alu, op.aReg, op.imm, op.dst = skBinRC, in.ALU, in.A.Reg, in.B.Imm, in.Dst
		case in.A.Kind == ir.ValConst && in.B.Kind == ir.ValReg:
			op.kind, op.alu, op.imm, op.bReg, op.dst = skBinCR, in.ALU, in.A.Imm, in.B.Reg, in.Dst
		}
	case ir.OpMov:
		switch in.A.Kind {
		case ir.ValReg:
			op.kind, op.aReg, op.dst = skMovR, in.A.Reg, in.Dst
		case ir.ValConst:
			op.kind, op.imm, op.dst = skMovC, in.A.Imm, in.Dst
		}
	case ir.OpGEP:
		switch {
		case in.A.Kind == ir.ValReg && in.B.Kind == ir.ValReg:
			op.kind, op.aReg, op.bReg, op.dst = skGEPRR, in.A.Reg, in.B.Reg, in.Dst
			op.aux, op.imm = uint64(in.Scale), uint64(in.Off)
		case in.A.Kind == ir.ValReg && in.B.Kind == ir.ValConst:
			// The whole constant displacement folds at compile time.
			op.kind, op.aReg, op.dst = skGEPRC, in.A.Reg, in.Dst
			op.imm = in.B.Imm*uint64(in.Scale) + uint64(in.Off)
		case in.A.Kind == ir.ValGlobal && in.B.Kind == ir.ValReg:
			// The global's offset in the data segment folds with both
			// constant displacements; the runner adds the machine's slid
			// data base, so the op stays shareable across machines.
			op.kind, op.bReg, op.dst = skGEPGR, in.B.Reg, in.Dst
			op.aux = uint64(in.Scale)
			op.imm = c.GlobalOff[in.A.Index] + in.A.Imm + uint64(in.Off)
		}
	case ir.OpLoad:
		if in.Flags&protMask == 0 && in.Size == 8 {
			switch in.A.Kind {
			case ir.ValReg:
				op.kind, op.aReg, op.dst = skLoadRegW8, in.A.Reg, in.Dst
			case ir.ValFrame:
				if !in.A.Unsafe {
					op.kind, op.dst = skLoadFrameW8, in.Dst
					op.imm = uint64(in.A.ObjOff) + in.A.Imm
				}
			}
		}
	case ir.OpStore:
		if in.Flags&protMask == 0 && in.Size == 8 {
			switch in.B.Kind {
			case ir.ValReg:
				op.bReg = in.B.Reg
			case ir.ValConst:
				op.bReg, op.imm = -1, in.B.Imm
			default:
				op.bReg = -2 // slow operand evaluation via in.B
			}
			switch {
			case in.A.Kind == ir.ValReg:
				op.kind, op.aReg = skStoreRegW8, in.A.Reg
			case in.A.Kind == ir.ValFrame && !in.A.Unsafe:
				// aux carries the frame displacement; imm may hold a
				// constant stored value.
				op.kind, op.aux = skStoreFrameW8, uint64(in.A.ObjOff)+in.A.Imm
			default:
				op.bReg, op.imm = 0, 0 // stay generic
			}
		}
	case ir.OpRet:
		op.kind = skRet
		switch in.A.Kind {
		case ir.ValReg:
			op.aReg = in.A.Reg
		case ir.ValNone:
			op.aReg = -1
		default:
			op.aReg = -2 // slow operand evaluation via in.A
		}
	case ir.OpCall:
		if in.Callee >= 0 && regArgCall(in, p.Funcs[in.Callee]) {
			op.kind, op.aReg, op.dst = skCall, in.Callee, in.Dst
			op.imm = uint64(in.SiteOrd)
		}
	}
	return op
}

// regArgCall reports whether a direct call passes only registers and
// constants, covering the callee's parameters exactly: the shape segCall
// copies with neither pushFrame's arity zero-fill nor its bounds guard
// against the callee register file.
func regArgCall(in *PIns, callee *ir.Func) bool {
	if len(in.Args) != len(callee.Params) || len(callee.Params) > callee.NumRegs {
		return false
	}
	for i := range in.Args {
		if k := in.Args[i].Kind; k != ir.ValReg && k != ir.ValConst {
			return false
		}
	}
	return true
}

// compileBlocks installs segments for one function: one per block head and
// per call return site. Even single-op segments are kept — their terminal
// runs at dispatch-loop cost when entered from the loop, but they let the
// trampoline chain call/return/branch continuations without surfacing, so
// tight recursion never leaves the segment runner. Runs after fc.Ins is
// fully built (segOps hold pointers into it). Returns the number of segments
// installed. fc.Segs is always allocated — the trampoline indexes it for
// every function a run can enter.
func compileBlocks(p *ir.Program, c *Code, fc *FuncCode) int {
	n := len(fc.Ins)
	fc.Segs = make([]segRef, n)
	if n == 0 {
		return 0
	}
	entries := make([]int32, 0, len(fc.BlockPC)+8)
	entries = append(entries, fc.BlockPC...)
	for pc := range fc.Ins {
		switch fc.Ins[pc].Op {
		case ir.OpCall, ir.OpICall:
			if pc+1 < n {
				entries = append(entries, int32(pc+1))
			}
		}
	}
	var tb traceCompiler
	count := 0
	for _, e := range entries {
		if fc.Segs[e].n != 0 {
			continue
		}
		ops := tb.build(p, c, fc, int(e))
		mergePairs(ops)
		ops = foldBranches(ops)
		fc.Segs[e] = segRef{off: int32(len(fc.SegOps)), n: int32(len(ops))}
		fc.SegOps = append(fc.SegOps, ops...)
		fc.Ins[e].run = hSeg
		count++
	}
	return count
}

// mergePairs rewrites adjacent constituent shapes into merged pair kinds.
// Only never-faulting first constituents qualify (add/sub/compare/GEP), so
// a merged body has no mid-pair slow path; the compare pairs additionally
// require the branch to consume the freshly computed flag, the return pairs
// the fresh result, and the address-mode pairs a word load or store whose
// address register is the fresh GEP result. A consumed second slot keeps
// its original segOp (the merged executor reads its fields and skips it).
func mergePairs(ops []segOp) {
	for j := 0; j+1 < len(ops); j++ {
		a, b := &ops[j], &ops[j+1]
		addSub := a.alu == ir.AAdd || a.alu == ir.ASub
		switch {
		case (b.kind == skLoadRegW8 || b.kind == skStoreRegW8) && b.aReg == a.dst &&
			(a.kind == skGEPRR || a.kind == skGEPRC || a.kind == skGEPGR):
			a.kind = gepPair(a.kind, b.kind == skStoreRegW8)
		case a.kind == skBinRC && isCmp(a.alu) && b.kind == skCondBrX && b.aReg == a.dst:
			a.kind = skPairCmpRCBrX
		case a.kind == skBinRR && isCmp(a.alu) && b.kind == skCondBrX && b.aReg == a.dst:
			a.kind = skPairCmpRRBrX
		case a.kind == skBinRC && addSub && b.kind == skCall:
			a.kind = skPairBinRCCall
		case a.kind == skBinRC && addSub && b.kind == skRet && b.aReg == a.dst:
			a.kind = skPairBinRCRet
		case a.kind == skBinRR && addSub && b.kind == skRet && b.aReg == a.dst:
			a.kind = skPairBinRRRet
		default:
			continue
		}
		j++ // the second slot is consumed by the merged head
	}
}

// gepPair names the address-mode pair of GEP shape g feeding a word load
// or, with store, a word store. The pair kinds list the GEP shapes in
// their own order (skGEPRR, skGEPRC, skGEPGR).
func gepPair(g uint8, store bool) uint8 {
	k := skPairGEPRRLoad + g - skGEPRR
	if store {
		k += skPairGEPRRStore - skPairGEPRRLoad
	}
	return k
}

// foldBranches drops every trace-extending br whose successor op is not
// itself a br, marking that successor pre so the runner charges the
// branch's step and Cost.Br in front of it. A br followed by a br stays an
// op (an op carries at most one folded branch). Pair slots are never
// affected: a pair's second constituent follows its head, not a br. The
// ops are compacted in place.
func foldBranches(ops []segOp) []segOp {
	out := ops[:0]
	for j := range ops {
		if ops[j].kind == skBr && j+1 < len(ops) && ops[j+1].kind != skBr {
			ops[j+1].pre, ops[j+1].brPC = true, ops[j].pc
			continue
		}
		out = append(out, ops[j])
	}
	return out
}

// traceKey names one instruction slot of the program.
type traceKey struct {
	fc *FuncCode
	pc int32
}

// traceCompiler compiles traces (build), reusing one op buffer and one
// visited-slot list across the traces of one compileBlocks call. A built
// trace aliases the buffer until the next build.
type traceCompiler struct {
	ops     []segOp
	visited []traceKey
}

// visit marks a slot visited, reporting false if it already was. A trace
// visits only its entry and its control-transfer targets, so a linear scan
// beats a map.
func (tb *traceCompiler) visit(fc *FuncCode, pc int32) bool {
	k := traceKey{fc, pc}
	if slices.Contains(tb.visited, k) {
		return false
	}
	tb.visited = append(tb.visited, k)
	return true
}

// build compiles the straight-line trace anchored at start. The trace
// extends across three kinds of control transfer as long as its target was
// not already visited (loops terminate the trace; re-entry goes through the
// target's own segment via the trampoline) and the op cap allows:
//
//   - unconditional branches (skBr), into the target block;
//   - conditional branches (skCondBrX), into the fall-through arm — the
//     taken arm exits the activation early and hops;
//   - direct calls of the skCall shape, into the callee's entry block:
//     both push paths (segCall's inline one and pushFrame) leave the callee
//     current at pc 0, so the trace's remaining ops execute in the callee
//     frame and pc space — the runner refreshes its frame hoists mid-trace.
//
// Indirect calls and returns stay terminal: their continuations are
// dynamic, and the trampoline resolves them at runtime. A trace that hits
// the cap ends in its last constituent's own handler (skGeneric), which
// leaves the next pc in f.pc for the dispatch loop.
func (tb *traceCompiler) build(p *ir.Program, c *Code, fc *FuncCode, start int) []segOp {
	ops := tb.ops[:0]
	tb.visited = append(tb.visited[:0], traceKey{fc, int32(start)})
	for pc := start; ; {
		in := &fc.Ins[pc]
		op := makeSegOp(p, c, in, pc, len(ops))
		room := len(ops)+1 < segMaxOps // a continuation op still fits
		next := -1                     // where the trace continues; -1 ends it
		switch in.Op {
		case ir.OpICall, ir.OpRet:
		case ir.OpCall:
			if op.kind == skCall && room {
				if cf := &c.Funcs[in.Callee]; len(cf.Ins) > 0 && tb.visit(cf, 0) {
					fc, next = cf, 0
				}
			}
		case ir.OpCondBr:
			// Unextended, the branch stays generic like an unextended br.
			if in.A.Kind == ir.ValReg && room && tb.visit(fc, in.Targ1) {
				op.kind, op.aReg = skCondBrX, in.A.Reg
				op.imm, op.aux = uint64(in.Targ0), uint64(in.Targ1)
				next = int(in.Targ1)
			}
		case ir.OpBr:
			// Unextended, the branch stays generic: the handler redirects,
			// then the trampoline picks up the target's own segment without
			// a dispatch-loop round trip.
			if room && tb.visit(fc, in.Targ0) {
				op.kind, next = skBr, int(in.Targ0)
			}
		default:
			if room {
				next = pc + 1
			} else {
				op.kind = skGeneric
			}
		}
		ops = append(ops, op)
		if next < 0 {
			break
		}
		pc = next
	}
	tb.ops = ops
	return ops
}

// hSeg enters the segment anchored at the current pc — the handler
// installed on every segment entry slot.
func hSeg(m *Machine, f *frame, in *PIns) {
	m.runSegment(f)
}

// runSegment executes compiled segments until control leaves block-compiled
// code: it runs the entered segment's constituents back-to-back, then
// trampolines into whatever segment the terminal op's continuation enters
// (branch target, callee entry, return site), charging per trampoline hop
// exactly what a dispatch-loop round trip charges (one step, one dispatch,
// budget check first).
//
// Counter and mirror discipline: the entry constituent's step and dispatch
// were already charged (and budget-checked) by the dispatch loop or by the
// trampoline hop, so at activation entry the step count covers op k == 0
// and the runner computes the headroom lim = budget - steps once. Each op
// then only compares its own k against lim; the step count is materialized
// from the exiting op's k at the activation's exits — a trap, an early
// taken branch, the terminal — and written back to m.steps only at budget
// traps and at exit (nothing outside budgetTrap and Run reads it mid-run).
// A folded branch (op.pre) is its own step k-1: a budget miss on it
// reports the branch's pc and step, exactly like the dispatch loop. The
// cycle delta lives in a local too; it is observable only by intrinsics
// and machine hooks — every other callee (the call/return machinery, the
// translation-cache miss paths) strictly ADDS to m.cycles, which commutes
// with the exit flush — so it is flushed only before generic handlers
// (which may be intrinsic calls) and hook runs. There is no pc local:
// straight-line fast paths never touch f.pc (the next op carries its own
// pc), every call that can trap or read the position — slow paths,
// generic handlers, calls, returns, budget traps — is preceded by a flush
// of f.pc = op.pc, and every terminal leaves its continuation in f.pc.
// The register file and metadata slices are hoisted per frame.
//
// Metadata elision (tm): register metadata is behaviorally dead unless some
// consumer is armed — an enforcer (cps/cpi/softbound/pac), the safe
// stack, fortifyLimit, CFI, pointer mangling, the temporal-safety sweep,
// the dual-store and audit oracles, or a driver hook (which can observe
// anything). When none is, the segment executors skip every
// meta read and write; slow-path fallbacks then see invalidMeta, which is
// what plain operations produce anyway. Configurations with any consumer
// armed keep full metadata maintenance, bit-identical to the handlers.
func (m *Machine) runSegment(f *frame) {
	cost := &m.cfg.Cost
	safeStack := m.caps.safeStack
	sfi := m.cfg.Isolation == IsoSFI
	boundsGEP := m.caps.boundsGEP
	tm := safeStack || m.enf != nil || m.caps.cfi ||
		m.cfg.Fortify || m.cfg.PtrMangle ||
		m.cfg.TemporalSafety || m.cfg.DebugDualStore ||
		m.cfg.AuditSensitive || m.hooks != nil
	budget := m.stepBudget
	steps0 := m.steps
	steps := steps0
	var cyc int64
	var entries int64
	sr := f.code.Segs[f.pc]

activation:
	for {
		entries++
		ops := f.code.SegOps[sr.off : sr.off+sr.n]
		lim := budget - steps
		i := 0
	frame:
		for {
			// Per-frame hoists. Only a mid-trace call switches frames
			// inside a trace; it re-enters here, so everything but i and
			// cyc is invariant across the op loop (no per-op spills).
			regs, meta := f.regs, f.meta
		body:
			for ; i < len(ops); i++ {
				op := &ops[i]
				if int64(op.k) > lim {
					steps, cyc = m.segBudgetTrap(f, op, steps, lim, cyc)
					break activation
				}
				if op.pre {
					cyc += cost.Br
				}
				switch op.kind {
				case skBinRR, skBinRC, skBinCR:
					// The whole ALU inline, with aluEval's semantics.
					var a, b uint64
					switch op.kind {
					case skBinRC:
						a, b = regs[op.aReg], op.imm
					case skBinRR:
						a, b = regs[op.aReg], regs[op.bReg]
					default:
						a, b = op.imm, regs[op.bReg]
					}
					// add/sub, the bulk, are peeled off by two compares in
					// front of the jump table the other operators take.
					var v uint64
					switch op.alu {
					case ir.AAdd:
						v = a + b
					case ir.ASub:
						v = a - b
					default:
						switch op.alu {
						case ir.AMul:
							v = uint64(int64(a) * int64(b))
						case ir.ADiv, ir.ARem:
							if b == 0 {
								f.pc = int(op.pc)
								m.divZeroTrap()
								break body
							}
							if op.alu == ir.ADiv {
								v = uint64(int64(a) / int64(b))
							} else {
								v = uint64(int64(a) % int64(b))
							}
						case ir.AAnd:
							v = a & b
						case ir.AOr:
							v = a | b
						case ir.AXor:
							v = a ^ b
						case ir.AShl:
							v = a << (b & 63)
						case ir.AShr:
							v = uint64(int64(a) >> (b & 63))
						default:
							v = cmpEval(op.alu, a, b)
						}
					}
					regs[op.dst] = v
					if tm {
						meta[op.dst] = invalidMeta
					}
					cyc += cost.Bin

				case skMovR:
					regs[op.dst] = regs[op.aReg]
					if tm {
						meta[op.dst] = meta[op.aReg]
					}
					cyc += cost.Mov

				case skMovC:
					regs[op.dst] = op.imm
					if tm {
						meta[op.dst] = invalidMeta
					}
					cyc += cost.Mov

				case skGEPRR:
					regs[op.dst] = regs[op.aReg] + regs[op.bReg]*op.aux + op.imm
					if tm {
						meta[op.dst] = meta[op.aReg]
					}
					cyc += cost.GEP
					if boundsGEP {
						cyc += cost.SBGEP
					}

				case skGEPRC:
					regs[op.dst] = regs[op.aReg] + op.imm
					if tm {
						meta[op.dst] = meta[op.aReg]
					}
					cyc += cost.GEP
					if boundsGEP {
						cyc += cost.SBGEP
					}

				case skGEPGR:
					regs[op.dst] = globalBase + m.slideData + op.imm + regs[op.bReg]*op.aux
					if tm {
						meta[op.dst] = m.globalMeta(&op.in.A)
					}
					cyc += cost.GEP
					if boundsGEP {
						cyc += cost.SBGEP
					}

				case skLoadRegW8:
					addr := regs[op.aReg]
					if v, ok := m.mem.TryLoadWord(addr); ok {
						cyc += cost.Load
						regs[op.dst] = v
						if tm {
							meta[op.dst] = invalidMeta
						}
						break
					}
					f.pc = int(op.pc)
					m.loadPlainInto(f, addr, false, op.dst, 8)
					if m.trap != nil {
						break body
					}

				case skLoadFrameW8:
					addr := f.safeBase + op.imm
					if !safeStack {
						if v, ok := m.mem.TryLoadWord(addr); ok {
							cyc += cost.Load
							regs[op.dst] = v
							if tm {
								meta[op.dst] = invalidMeta
							}
							break
						}
					} else if v, ok := m.safe.TryLoadWord(addr); ok {
						cyc += cost.Load
						regs[op.dst] = v
						meta[op.dst] = m.safeMetaAt(addr)
						break
					}
					f.pc = int(op.pc)
					m.loadPlainInto(f, addr, safeStack, op.dst, 8)
					if m.trap != nil {
						break body
					}

				case skStoreRegW8:
					addr := regs[op.aReg]
					var val uint64
					switch {
					case op.bReg >= 0:
						val = regs[op.bReg]
					case op.bReg == -1:
						val = op.imm
					default:
						val = m.evalUSlow(f, &op.in.B)
					}
					if sfi {
						cyc += cost.SFIMask
					}
					if m.mem.TryStoreWord(addr, val) {
						cyc += cost.Store
						break
					}
					f.pc = int(op.pc)
					m.storePlainSlow(f, addr, false, val, invalidMeta, 8)
					if m.trap != nil {
						break body
					}

				case skStoreFrameW8:
					addr := f.safeBase + op.aux
					var val uint64
					valMeta := invalidMeta
					if op.bReg >= 0 {
						val = regs[op.bReg]
						if tm {
							valMeta = meta[op.bReg]
						}
					} else {
						val, valMeta = m.evalValSlow(f, &op.in.B)
					}
					if !safeStack {
						if sfi {
							cyc += cost.SFIMask
						}
						if m.mem.TryStoreWord(addr, val) {
							cyc += cost.Store
							break
						}
					} else if m.safe.TryStoreWord(addr, val) {
						m.setSafeMeta(addr, valMeta)
						cyc += cost.Store
						break
					}
					f.pc = int(op.pc)
					m.storePlainSlow(f, addr, safeStack, val, valMeta, 8)
					if m.trap != nil {
						break body
					}

				case skBr:
					// Trace-extending branch into another br: the next segOp IS
					// the target.
					cyc += cost.Br

				case skCondBrX: // trace-extending: the fall-through arm is the
					// next op; the taken arm leaves the activation early and
					// lets the trampoline chain into the target's own segment.
					cyc += cost.CondBr
					if regs[op.aReg] != 0 {
						f.pc = int(op.imm)
						break body
					}

				case skRet: // terminal; segRet inlines retFinish+popFrame for
					// the common return shape and falls back to retFinish
					// otherwise. Outlined so the segment loop's register
					// allocation stays lean.
					f.pc = int(op.pc)
					cyc = m.segRet(f, op, tm, cyc)

				case skCall: // segCall mirrors execCall with the
					// recycled-frame push inlined, falling back to pushFrame
					// for every other shape. Outlined like segRet. Mid-trace
					// when the callee's entry continuation is inlined: every
					// push path leaves the callee frame current at pc 0, so the
					// remaining ops execute there after a frame-hoist refresh.
					f.pc = int(op.pc)
					cyc = m.segCall(f, op, tm, cyc)
					if m.trap != nil {
						break body
					}
					if i+1 < len(ops) {
						f = m.cur
						i++
						continue frame
					}

				case skPairCmpRCBrX, skPairCmpRRBrX:
					// Compare + branch on the fresh flag. Each constituent
					// charges its own step, cycle and budget check.
					var b uint64
					if op.kind == skPairCmpRRBrX {
						b = regs[op.bReg]
					} else {
						b = op.imm
					}
					v := cmpEval(op.alu, regs[op.aReg], b)
					regs[op.dst] = v
					if tm {
						meta[op.dst] = invalidMeta
					}
					cyc += cost.Bin
					i++
					op2 := &ops[i]
					if int64(op2.k) > lim {
						steps, cyc = m.segBudgetTrap(f, op2, steps, lim, cyc)
						break activation
					}
					cyc += cost.CondBr
					if v != 0 { // taken arm exits early
						f.pc = int(op2.imm)
						break body
					}

				case skPairBinRCCall:
					a := regs[op.aReg]
					var v uint64
					if op.alu == ir.AAdd {
						v = a + op.imm
					} else {
						v = a - op.imm
					}
					regs[op.dst] = v
					if tm {
						meta[op.dst] = invalidMeta
					}
					cyc += cost.Bin
					i++
					op2 := &ops[i]
					if int64(op2.k) > lim {
						steps, cyc = m.segBudgetTrap(f, op2, steps, lim, cyc)
						break activation
					}
					f.pc = int(op2.pc)
					cyc = m.segCall(f, op2, tm, cyc)
					if m.trap != nil {
						break body
					}
					if i+1 < len(ops) {
						f = m.cur
						i++
						continue frame
					}

				case skPairBinRCRet, skPairBinRRRet:
					a := regs[op.aReg]
					var b uint64
					if op.kind == skPairBinRRRet {
						b = regs[op.bReg]
					} else {
						b = op.imm
					}
					var v uint64
					if op.alu == ir.AAdd {
						v = a + b
					} else {
						v = a - b
					}
					regs[op.dst] = v
					if tm {
						meta[op.dst] = invalidMeta
					}
					cyc += cost.Bin
					i++
					op2 := &ops[i]
					if int64(op2.k) > lim {
						steps, cyc = m.segBudgetTrap(f, op2, steps, lim, cyc)
						break activation
					}
					f.pc = int(op2.pc)
					cyc = m.segRet(f, op2, tm, cyc)

				case skPairGEPRRLoad, skPairGEPRCLoad, skPairGEPGRLoad,
					skPairGEPRRStore, skPairGEPRCStore, skPairGEPGRStore:
					// GEP + word load/store through the fresh address: the
					// GEP executor, then the second constituent's budget
					// check, then the skLoadRegW8/skStoreRegW8 body.
					var addr uint64
					switch op.kind {
					case skPairGEPRRLoad, skPairGEPRRStore:
						addr = regs[op.aReg] + regs[op.bReg]*op.aux + op.imm
						if tm {
							meta[op.dst] = meta[op.aReg]
						}
					case skPairGEPRCLoad, skPairGEPRCStore:
						addr = regs[op.aReg] + op.imm
						if tm {
							meta[op.dst] = meta[op.aReg]
						}
					default:
						addr = globalBase + m.slideData + op.imm + regs[op.bReg]*op.aux
						if tm {
							meta[op.dst] = m.globalMeta(&op.in.A)
						}
					}
					regs[op.dst] = addr
					cyc += cost.GEP
					if boundsGEP {
						cyc += cost.SBGEP
					}
					i++
					op2 := &ops[i]
					if int64(op2.k) > lim {
						steps, cyc = m.segBudgetTrap(f, op2, steps, lim, cyc)
						break activation
					}
					if op2.kind == skLoadRegW8 {
						if v, ok := m.mem.TryLoadWord(addr); ok {
							cyc += cost.Load
							regs[op2.dst] = v
							if tm {
								meta[op2.dst] = invalidMeta
							}
							break
						}
						f.pc = int(op2.pc)
						m.loadPlainInto(f, addr, false, op2.dst, 8)
						if m.trap != nil {
							break body
						}
						break
					}
					var val uint64
					switch {
					case op2.bReg >= 0:
						val = regs[op2.bReg]
					case op2.bReg == -1:
						val = op2.imm
					default:
						val = m.evalUSlow(f, &op2.in.B)
					}
					if sfi {
						cyc += cost.SFIMask
					}
					if m.mem.TryStoreWord(addr, val) {
						cyc += cost.Store
						break
					}
					f.pc = int(op2.pc)
					m.storePlainSlow(f, addr, false, val, invalidMeta, 8)
					if m.trap != nil {
						break body
					}

				default: // skGeneric: the slot's own handler, flushed around
					f.pc = int(op.pc)
					m.cycles += cyc
					cyc = 0
					op.h(m, f, op.in)
					if m.trap != nil {
						break body
					}
				}
			}
			break
		}
		// i is the constituent the activation left at: the terminal (the
		// loop ran off the end), an early taken branch, or a trap.
		steps += int64(ops[min(i, len(ops)-1)].k)
		if m.trap != nil {
			break
		}

		// Trampoline: if the continuation lands on a segment entry, chain
		// into it directly, charging what one dispatch-loop round trip
		// would (step, dispatch, budget check).
		f = m.cur
		sr = f.code.Segs[f.pc]
		if sr.n == 0 {
			break
		}
		steps++
		if steps > budget {
			m.steps = steps
			// The trapped hop's dispatch is real but its step is not a
			// block constituent; keep the exit accounting's invariants.
			m.extraDisp++
			steps0++
			m.budgetTrap()
			break
		}
	}

	// Every activation after the first arrived via a trampoline hop; each
	// hop paid one step that is not an executed block constituent.
	m.steps = steps
	m.cycles += cyc
	m.blockEntries += entries
	m.blockSteps += (steps - steps0) + 1
	m.extraDisp += entries - 1
}

// segBudgetTrap raises the step-budget trap at op, whose step steps+op.k
// (steps: the count at the activation's entry constituent) exceeds the
// headroom lim. A folded branch in front of op is its own step: if the
// budget runs out there, the trap reports the branch's pc and step count
// and its cycles are not charged. Returns the step count and cycle delta
// at the trap. Outlined so the segment loop's hot path stays lean.
func (m *Machine) segBudgetTrap(f *frame, op *segOp, steps, lim, cyc int64) (int64, int64) {
	k := int64(op.k)
	f.pc = int(op.pc)
	if op.pre {
		if k-1 > lim {
			k--
			f.pc = int(op.brPC)
		} else {
			cyc += m.cfg.Cost.Br
		}
	}
	m.steps = steps + k
	m.budgetTrap()
	return m.steps, cyc
}

// globalMeta is the based-on metadata of a global object operand, as evalP
// resolves it.
func (m *Machine) globalMeta(v *PVal) Meta {
	gb := m.globalAddr(int(v.Index))
	return Meta{Kind: sps.KindData, Lower: gb, Upper: gb + uint64(v.Size)}
}

// isCmp reports whether the operator is one of the comparison ALU ops
// (results are 0/1 and can never fault).
func isCmp(op ir.ALU) bool {
	switch op {
	case ir.ALt, ir.AGt, ir.ALe, ir.AGe, ir.AEq, ir.ANe:
		return true
	}
	return false
}

// cmpEval evaluates a comparison operator (callers guarantee isCmp).
func cmpEval(op ir.ALU, ua, ub uint64) uint64 {
	a, b := int64(ua), int64(ub)
	var c bool
	switch op {
	case ir.ALt:
		c = a < b
	case ir.AGt:
		c = a > b
	case ir.ALe:
		c = a <= b
	case ir.AGe:
		c = a >= b
	case ir.AEq:
		c = ua == ub
	default: // ir.ANe
		c = ua != ub
	}
	if c {
		return 1
	}
	return 0
}

// divZeroTrap raises the division-by-zero trap, outlined like budgetTrap.
func (m *Machine) divZeroTrap() {
	m.trapf(TrapDivZero, 0, ViaNone, "division by zero")
}

// budgetTrap raises the step-budget trap from inside a segment, outlined so
// the segment loop's hot path carries no formatting call.
func (m *Machine) budgetTrap() {
	m.trapf(TrapMaxSteps, 0, ViaNone, "after %d steps", m.steps)
}

// segRet executes a skRet terminal: the fast path inlines retFinish+popFrame
// for the common return shape (no canary, expected return address in place,
// no shadow metadata to clear, not the final frame); anything else falls
// through to retFinish before any state or cost mutation. retFinish only
// adds to m.cycles, so the local cycle delta rides through either way. The
// caller has already flushed f.pc.
func (m *Machine) segRet(f *frame, op *segOp, tm bool, cyc int64) int64 {
	var rv uint64
	rm := invalidMeta
	switch {
	case op.aReg >= 0:
		rv = f.regs[op.aReg]
		if tm {
			rm = f.meta[op.aReg]
		}
	case op.aReg == -2:
		rv, rm = m.evalValSlow(f, &op.in.A)
	}
	if nf := len(m.frames) - 1; f.canaryAddr == 0 && nf > 0 &&
		(f.safeSize == 0 || (len(m.safeMetaW) == 0 && len(m.safeMetaU) == 0)) {
		var retWord uint64
		var hit bool
		if f.retOnSafe {
			retWord, hit = m.safe.TryLoadWord(f.retSlot)
		} else {
			retWord, hit = m.mem.TryLoadWord(f.retSlot)
		}
		if hit && retWord == f.retAddr {
			cyc += m.cfg.Cost.Ret + m.cfg.Cost.Load
			m.sp += f.regSize
			m.ssp += f.safeSize
			m.frames = m.frames[:nf]
			caller := m.frames[nf-1]
			m.cur = caller
			caller.pc = f.retPC
			if d := f.dst; d >= 0 {
				caller.regs[d] = rv
				if tm {
					caller.meta[d] = rm
				}
			}
			return cyc
		}
	}
	m.retFinish(f, rv, rm)
	return cyc
}

// segCall executes a skCall op, mirroring execCall. The fast path inlines
// newFrame's recycled-record reuse (re-pointing records that last held a
// different function; initFrame is idempotent, so a fallback below still
// recycles correctly) and pushFrame's frame setup for cookie-less frames,
// copying the register and constant arguments straight into the callee's
// register file; any other shape falls through to pushFrame before any
// state mutation. The caller has already flushed f.pc.
func (m *Machine) segCall(f *frame, op *segOp, tm bool, cyc int64) int64 {
	retPC := int(op.pc) + 1
	if m.hooks != nil {
		m.cycles += cyc // hooks may observe Cycles()
		cyc = 0
		m.runHook(int(op.aReg))
		if m.trap != nil {
			return cyc
		}
	}
	cost := &m.cfg.Cost
	cyc += cost.Call
	callee := int(op.aReg)
	retAddr := m.retSiteAddr(int32(op.imm))
	n := len(m.frames)
	var f2 *frame
	var info *frameInfo
	if n < m.cfg.MaxCallDepth && n < cap(m.frames) {
		if c2 := m.frames[:cap(m.frames)][n]; c2 != nil {
			if c2.fidx == callee {
				if !c2.code.NeedsRegClear {
					f2 = c2
				}
			} else {
				f2 = m.initFrame(c2, callee)
			}
			if f2 != nil {
				info = &m.finfo[callee]
				if info.cookie || f2.fn.NeedsUnsafeFrame {
					f2 = nil
				}
			}
		}
	}
	if f2 == nil {
		m.pushFrame(callee, f, op.in.Args, retAddr, retPC, int(op.dst))
		return cyc
	}
	f2.pc = 0
	f2.retPC = retPC
	f2.dst = int(op.dst)
	if args := op.in.Args; len(args) > 0 {
		cyc += int64(len(args)) * cost.Arg
		regs, meta := f.regs, f.meta
		regs2 := f2.regs
		if tm {
			meta2 := f2.meta
			for i := range args {
				if a := &args[i]; a.Kind == ir.ValReg {
					regs2[i] = regs[a.Reg]
					meta2[i] = meta[a.Reg]
				} else {
					regs2[i] = a.Imm
					meta2[i] = invalidMeta
				}
			}
		} else {
			for i := range args {
				if a := &args[i]; a.Kind == ir.ValReg {
					regs2[i] = regs[a.Reg]
				} else {
					regs2[i] = a.Imm
				}
			}
		}
	}
	f2.canaryAddr = 0
	rt := info.regularTotal
	if rt > 0 {
		if m.sp < m.stackFloor+rt {
			m.trapf(TrapStackOverflow, m.sp, ViaNone, "regular stack exhausted")
			return cyc
		}
		m.sp -= rt
	}
	f2.regBase = m.sp
	if info.safeTotal > 0 {
		if m.ssp < uint64(safeStackTop)-stackMax+info.safeTotal {
			m.trapf(TrapStackOverflow, m.ssp, ViaNone, "safe stack exhausted")
			return cyc
		}
		m.ssp -= info.safeTotal
	}
	f2.safeBase = m.ssp
	f2.regSize = rt
	f2.safeSize = info.safeTotal
	f2.retAddr = retAddr
	f2.retOnSafe = info.retOnSafe
	if info.retOnSafe {
		f2.retSlot = f2.safeBase + uint64(f2.fn.SafeSize)
		if !m.safe.TryStoreWord(f2.retSlot, retAddr) {
			if err := m.safe.Store(f2.retSlot, 8, retAddr); err != nil {
				m.memFault(err)
				return cyc
			}
		}
	} else {
		f2.retSlot = f2.regBase + info.objBytes
		if !m.mem.TryStoreWord(f2.retSlot, retAddr) {
			if err := m.mem.Store(f2.retSlot, 8, retAddr); err != nil {
				m.memFault(err)
				return cyc
			}
		}
	}
	if !m.caps.safeStack {
		f2.safeBase = f2.regBase
	}
	m.frames = m.frames[:n+1]
	m.cur = f2
	if m.sp < m.minSp {
		m.minSp = m.sp
	}
	if m.ssp < m.minSsp {
		m.minSsp = m.ssp
	}
	if m.spsDirty {
		m.sampleSPSPeaks()
	}
	return cyc
}
