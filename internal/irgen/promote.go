package irgen

// This file implements the register promotion pass (mem2reg): the lowering
// in this package is deliberately naive and spills every local to a frame
// slot, so the unoptimized dynamic stream is load/store-dominated. Promotion
// rewrites non-address-taken scalar locals and parameters out of their frame
// slots into virtual registers, which removes the spill traffic the way the
// classic SSA-construction pass (Cytron et al.) does for the LLVM baseline
// the paper instruments.
//
// Instead of inserting phi nodes, each promoted variable gets one *mutable*
// canonical register: every reaching definition writes that register, so a
// control-flow join needs no merge instruction at all — this is the
// destructed (conventional-SSA) form of block-argument phis, and it is what
// lets the VM execute promoted code with zero new control-flow machinery.
// ir.Func.Promoted records the promoted registers; the verifier checks
// def-before-use across blocks for them instead of single assignment.
//
// The pass runs per function, after lowering and before instrumentation:
//
//  1. candidate selection — 8-byte int/pointer frame objects whose every
//     appearance is the direct address of a whole-slot load or store. Any
//     other appearance (operand of a store's value position, GEP base, call
//     argument, return value) means the address escapes, exactly the
//     §3.2.4 escape condition, and the object stays in memory;
//  2. initialization check — a slot whose load is not preceded by a store
//     on every path (a C variable read uninitialized on some path, e.g.
//     through a switch fallthrough) is not promoted, so promoted execution
//     never has to invent a value the unpromoted program would have read
//     from memory;
//  3. rewrite — loads become OpMov from the canonical register, stores
//     become OpMov into it; a parameter's slot reuses its parameter
//     register, which turns the entry spill into a deleted self-move;
//  4. cleanup — block-local copy propagation, a fold of `def t; mov r, t`
//     into `def r`, and dead-move elimination shrink the mov traffic so an
//     assignment usually costs a single instruction and a read costs none;
//     cross-block copy propagation (copyprop.go) then rewrites every use
//     for which its available-copies dataflow holds a pair, with no
//     dominator tree, and a second dead-move elision drops the movs it
//     leaves without a use. On the bundled workloads the cross-block pass
//     reaches the same code without the local propagation and the first
//     elision; they run first because they keep its available-copy sets
//     small. Both propagations share one copySet, a dense d→s array over
//     the function's registers. setjmp calls are a propagation barrier: a
//     temporary captured before the call must not alias a variable
//     mutated before the longjmp;
//  5. frame compaction — promoted slots leave ir.Func.Frame and the
//     surviving objects are re-laid out.
//
// Every rewrite is semantics-preserving instruction by instruction, which
// is what the differential promotion-equivalence suite pins program by
// program: outputs, traps and heap-visible state are bit-identical, and the
// promoted stream executes no more steps than the unpromoted one.

import (
	"fmt"
	"slices"

	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/minic/builtins"
)

// promoteFunc runs register promotion on one lowered function.
func promoteFunc(fn *ir.Func) {
	cand := promoteSlots(fn)
	if cand == nil {
		return
	}
	st := newCopySet(fn.NumRegs)
	propagateCopies(fn, st)
	foldMovIntoDef(fn)
	elideDeadMovs(fn)
	// Cross-block cleanup (copyprop.go): propagate copies through the CFG
	// and drop the movs left without a use.
	if crossBlockCopyProp(fn, st) {
		elideDeadMovs(fn)
	}
	compactFrame(fn, cand)
}

// promoteSlots runs steps 1–3: it picks the promotable frame slots,
// gives each its canonical register and rewrites the slots' loads and
// stores into register moves. It returns the promoted slots, or nil when
// there are none and fn is unchanged.
func promoteSlots(fn *ir.Func) []bool {
	if fn.External || len(fn.Frame) == 0 {
		return nil
	}
	cand := promoteCandidates(fn)
	refineDefBeforeLoad(fn, cand)
	if !slices.Contains(cand, true) {
		return nil
	}

	// Canonical register per promoted slot. Parameter slot i reuses
	// parameter register i (the caller materializes it); other slots get a
	// fresh register.
	regOf := make([]int, len(fn.Frame))
	for i := range regOf {
		regOf[i] = -1
	}
	for i, obj := range fn.Frame {
		if !cand[i] {
			continue
		}
		r := fn.NumRegs
		if i < len(fn.Params) {
			r = i
		} else {
			fn.NumRegs++
		}
		regOf[i] = r
		fn.Promoted = append(fn.Promoted, ir.PromotedVar{Reg: r, Name: obj.Name, Type: obj.Type})
	}

	rewriteAccesses(fn, cand, regOf)
	return cand
}

// scalarSlot reports whether a frame object is a promotable value type: a
// whole-register int or pointer. char (byte-width accesses), arrays and
// structs stay in memory.
func scalarSlot(obj *ir.FrameObj) bool {
	t := obj.Type
	return obj.Size == 8 && t != nil &&
		(t.Kind == ctypes.KindInt || t.Kind == ctypes.KindPtr)
}

// promoteCandidates marks the frame slots whose every appearance is the
// direct address operand of a whole-slot load or store.
func promoteCandidates(fn *ir.Func) []bool {
	cand := make([]bool, len(fn.Frame))
	for i, obj := range fn.Frame {
		cand[i] = scalarSlot(obj)
	}
	escape := func(v ir.Value) {
		if v.Kind == ir.ValFrame {
			cand[v.Index] = false
		}
	}
	for _, b := range fn.Blocks {
		for ii := range b.Ins {
			in := &b.Ins[ii]
			switch in.Op {
			case ir.OpLoad:
				if in.A.Kind == ir.ValFrame && (in.A.Imm != 0 || in.Size != 8) {
					cand[in.A.Index] = false
				}
			case ir.OpStore:
				if in.A.Kind == ir.ValFrame && (in.A.Imm != 0 || in.Size != 8) {
					cand[in.A.Index] = false
				}
				escape(in.B)
			default:
				escape(in.A)
				escape(in.B)
			}
			for _, a := range in.Args {
				escape(a)
			}
		}
	}
	return cand
}

// refineDefBeforeLoad clears candidates whose slot may be loaded before any
// store reaches it (MustDefinedIn over the frame-slot domain). Parameter
// slots count as defined only from their entry spill store, which the
// lowering always emits first, so they are never cleared here.
func refineDefBeforeLoad(fn *ir.Func, cand []bool) {
	ns := len(fn.Frame)
	in := fn.MustDefinedIn(ns, nil, func(b *ir.Block, gen ir.Bits) {
		for ii := range b.Ins {
			ins := &b.Ins[ii]
			if ins.Op == ir.OpStore && ins.A.Kind == ir.ValFrame {
				gen.Add(ins.A.Index)
			}
		}
	})
	defined := ir.NewBits(ns)
	for bi, b := range fn.Blocks {
		copy(defined, in[bi])
		for ii := range b.Ins {
			ins := &b.Ins[ii]
			switch ins.Op {
			case ir.OpLoad:
				if ins.A.Kind == ir.ValFrame && !defined.Has(ins.A.Index) {
					cand[ins.A.Index] = false
				}
			case ir.OpStore:
				if ins.A.Kind == ir.ValFrame {
					defined.Add(ins.A.Index)
				}
			}
		}
	}
}

// rewriteAccesses turns loads/stores of promoted slots into register moves.
// Self-moves (the parameter entry spills, whose slot reuses the parameter
// register) are removed outright.
func rewriteAccesses(fn *ir.Func, cand []bool, regOf []int) {
	for _, b := range fn.Blocks {
		kept := b.Ins[:0]
		for ii := range b.Ins {
			in := &b.Ins[ii]
			switch {
			case in.Op == ir.OpLoad && in.A.Kind == ir.ValFrame && cand[in.A.Index]:
				*in = ir.Instr{Op: ir.OpMov, Dst: in.Dst, A: ir.Reg(regOf[in.A.Index])}
			case in.Op == ir.OpStore && in.A.Kind == ir.ValFrame && cand[in.A.Index]:
				*in = ir.Instr{Op: ir.OpMov, Dst: regOf[in.A.Index], A: in.B}
			}
			if in.Op == ir.OpMov && in.A.Kind == ir.ValReg && in.A.Reg == in.Dst {
				continue // self-move
			}
			kept = append(kept, *in)
		}
		b.Ins = kept
	}
}

// isSetjmpBarrier reports whether an instruction invalidates copy
// knowledge: a longjmp resumes right after the setjmp call with the frame's
// registers as the intervening code left them, so no temporary captured
// before the call may be aliased to a register written after it.
func isSetjmpBarrier(in *ir.Instr) bool {
	return in.Op == ir.OpCall && in.Callee < 0 && in.Intr == builtins.Setjmp
}

// propagateCopies performs block-local copy propagation: after
// `r_t = mov r_s` with a single-assignment destination, later uses of r_t in
// the block read r_s directly — until either register is rewritten. The mov
// itself usually becomes dead and is elided afterwards. This is exactly the
// load-forwarding the frame slot used to prevent; it is what turns a
// promoted variable read into zero instructions. st is the working set
// (empty, over fn's registers) and is left empty.
func propagateCopies(fn *ir.Func, st *copySet) {
	mutable := fn.MutableRegSet()
	sub := func(v *ir.Value) {
		if v.Kind == ir.ValReg {
			if s, ok := st.lookup(v.Reg); ok {
				v.Reg = s
			}
		}
	}
	for _, b := range fn.Blocks {
		st.reset()
		for ii := range b.Ins {
			in := &b.Ins[ii]
			sub(&in.A)
			sub(&in.B)
			for ai := range in.Args {
				sub(&in.Args[ai])
			}
			if isSetjmpBarrier(in) {
				st.reset()
				continue
			}
			if d := in.Dst; d >= 0 {
				st.kill(d)
				if in.Op == ir.OpMov && in.A.Kind == ir.ValReg && !mutable[d] {
					st.add(d, in.A.Reg)
				}
			}
		}
	}
	st.reset()
}

// foldMovIntoDef rewrites `r_t = <op> ...; r_x = mov r_t` into
// `r_x = <op> ...` when r_t is a single-assignment temporary used only by
// that mov: the assignment's defining instruction writes the variable's
// canonical register directly.
func foldMovIntoDef(fn *ir.Func) {
	mutable := fn.MutableRegSet()
	uses := regUseCounts(fn)
	for _, b := range fn.Blocks {
		kept := b.Ins[:0]
		for ii := 0; ii < len(b.Ins); ii++ {
			in := &b.Ins[ii]
			if ii+1 < len(b.Ins) {
				nx := &b.Ins[ii+1]
				if nx.Op == ir.OpMov && nx.A.Kind == ir.ValReg &&
					in.Dst >= 0 && nx.A.Reg == in.Dst && nx.Dst != in.Dst &&
					!in.IsTerm() && !mutable[in.Dst] && uses[in.Dst] == 1 {
					in.Dst = nx.Dst
					ii++ // the mov is consumed
				}
			}
			kept = append(kept, *in)
		}
		b.Ins = kept
	}
}

// elideDeadMovs removes moves whose destination register is never read
// anywhere in the function (write-only variables, and the capture moves
// whose uses copy propagation redirected), iterating to a fixpoint since a
// removed move can orphan the source of another.
func elideDeadMovs(fn *ir.Func) {
	for {
		uses := regUseCounts(fn)
		removed := false
		for _, b := range fn.Blocks {
			kept := b.Ins[:0]
			for ii := range b.Ins {
				in := &b.Ins[ii]
				if in.Op == ir.OpMov && uses[in.Dst] == 0 {
					removed = true
					continue
				}
				kept = append(kept, *in)
			}
			b.Ins = kept
		}
		if !removed {
			return
		}
	}
}

// regUseCounts counts register reads across the function.
func regUseCounts(fn *ir.Func) []int {
	uses := make([]int, fn.NumRegs)
	count := func(v ir.Value) {
		if v.Kind == ir.ValReg && v.Reg >= 0 && v.Reg < len(uses) {
			uses[v.Reg]++
		}
	}
	for _, b := range fn.Blocks {
		for ii := range b.Ins {
			in := &b.Ins[ii]
			count(in.A)
			count(in.B)
			for _, a := range in.Args {
				count(a)
			}
		}
	}
	return uses
}

// compactFrame drops promoted slots from the frame, remaps the surviving
// ValFrame indices, and re-lays the frame out.
func compactFrame(fn *ir.Func, cand []bool) {
	remap := make([]int, len(fn.Frame))
	var kept []*ir.FrameObj
	for i, obj := range fn.Frame {
		if cand[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, obj)
	}
	fix := func(v *ir.Value, where string) {
		if v.Kind != ir.ValFrame {
			return
		}
		ni := remap[v.Index]
		if ni < 0 {
			panic(fmt.Sprintf("irgen: promoted slot %d still referenced by %s in %s",
				v.Index, where, fn.Name))
		}
		v.Index = ni
	}
	for _, b := range fn.Blocks {
		for ii := range b.Ins {
			in := &b.Ins[ii]
			fix(&in.A, "A")
			fix(&in.B, "B")
			for ai := range in.Args {
				fix(&in.Args[ai], "arg")
			}
		}
	}
	fn.Frame = kept
	fn.Layout()
}
