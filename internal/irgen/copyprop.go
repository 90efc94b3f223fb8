package irgen

// This file implements the cross-block copy propagation pass that runs
// after the block-local promotion cleanup. The local pass (propagateCopies)
// forwards copies only inside a basic block, so every value that crosses a
// block boundary through a register mov — a variable read in one block and
// used in another, an assignment `b = a` consumed by both arms of a
// branch — still pays a mov per boundary. This pass removes that traffic
// by available-copy substitution over the whole CFG: a forward dataflow
// computes, for every block entry, the set of copy pairs (d, s) such that
// registers d and s are guaranteed to hold the same value (and, because
// the VM's mov handler copies register metadata together with the value,
// the same metadata) on every path from entry. The lattice is the map
// d→s; a register mov generates its pair, any write to either side kills
// it, and the meet at a join is set intersection. Uses of d rewrite to s
// wherever a pair is available, and the movs whose destinations lose
// their last use are left to the caller's dead-mov elision.
//
// For a single-assignment source the pass additionally checks that the
// source's unique definition dominates the use block. The dataflow
// already implies it, but the dominator check keeps the rewrite locally
// auditable and is what ties a substitution to the VM's must-defined
// register-clear elision: ir.Verify checks def-before-use only for
// promoted registers.
//
// The block-local pass runs first although, on the bundled workloads,
// this one reaches the same code without it: the transfer function's kill
// walks the whole available-copy map on every definition, and the local
// pass and its dead-mov elision leave that map small. setjmp is the same
// barrier it is for the local pass: the transfer function clears its
// state at a setjmp call, since a longjmp resumes there with the frame's
// registers as the intervening code left them, so no pair captured before
// the call survives it.
//
// Every rewrite preserves the dynamic behavior of the program instruction
// for instruction except for the movs that die, which is exactly the
// point: the dynamic step stream gets shorter, so the golden step/cycle
// tables are re-recorded deliberately in the same change that touches
// this pass.

import (
	"repro/internal/ir"
)

// crossBlockCopyProp runs the available-copies dataflow and rewrites uses.
// Returns true if the function changed (so the caller can re-run dead-mov
// elision).
func crossBlockCopyProp(fn *ir.Func) bool {
	if len(fn.Blocks) < 2 {
		return false // the block-local pass already saw everything
	}
	rpo := reversePostorder(fn)
	preds := predLists(fn)
	idom := immediateDominators(fn, rpo, preds)
	defBlock := saDefBlocks(fn)

	out := copyDataflow(fn, rpo, preds)

	// Rebuild each reachable block's IN from its predecessors and rewrite.
	changed := false
	for _, bi := range rpo {
		st := meetPreds(out, preds[bi], bi)
		b := fn.Blocks[bi]
		for ii := range b.Ins {
			in := &b.Ins[ii]
			changed = substUses(in, st, idom, defBlock, bi) || changed
			copyTransfer(in, st)
		}
	}
	return changed
}

// substUses rewrites the register uses of one instruction through the
// available-copy map, chasing chains to their root. A single-assignment
// replacement register must be defined in a block dominating the use.
func substUses(in *ir.Instr, st map[int]int, idom []int, defBlock []int, bi int) bool {
	changed := false
	sub := func(v *ir.Value) {
		if v.Kind != ir.ValReg {
			return
		}
		r := v.Reg
		// Chains are acyclic (generating (d,s) requires s live, and a
		// write to s kills (d,s)), but bound the walk anyway.
		for hops := 0; hops < len(idom)+8; hops++ {
			s, ok := st[r]
			if !ok {
				break
			}
			if db := defBlock[s]; db >= 0 && db != bi && !dominates(idom, db, bi) {
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

// copyTransfer applies one instruction to the available-copy state.
func copyTransfer(in *ir.Instr, st map[int]int) {
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

// copyDataflow computes each reachable block's OUT copy set by iterating
// the transfer function over reverse postorder until fixpoint.
func copyDataflow(fn *ir.Func, rpo []int, preds [][]int) []map[int]int {
	out := make([]map[int]int, len(fn.Blocks))
	for {
		changed := false
		for _, bi := range rpo {
			st := meetPreds(out, preds[bi], bi)
			for ii := range fn.Blocks[bi].Ins {
				copyTransfer(&fn.Blocks[bi].Ins[ii], st)
			}
			// nil means ⊤ (never computed); an empty map is a real bottom
			// OUT and must replace it even when the contents compare equal.
			if out[bi] == nil || !copySetEq(out[bi], st) {
				out[bi] = st
				changed = true
			}
		}
		if !changed {
			return out
		}
	}
}

// meetPreds intersects the predecessors' OUT sets (entry and blocks whose
// predecessors are all unprocessed start empty — the conservative bottom).
func meetPreds(out []map[int]int, preds []int, bi int) map[int]int {
	if bi == 0 {
		return map[int]int{}
	}
	var acc map[int]int
	for _, p := range preds {
		po := out[p]
		if po == nil {
			continue // unprocessed on this sweep: ⊤, identity for ∩
		}
		if acc == nil {
			acc = make(map[int]int, len(po))
			for d, s := range po {
				acc[d] = s
			}
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

func copySetEq(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for d, s := range a {
		if bs, ok := b[d]; !ok || bs != s {
			return false
		}
	}
	return true
}

// ---- CFG scaffolding ----

// predLists returns each block's predecessor list (reachability-agnostic:
// an edge counts whether or not its source is reachable).
func predLists(fn *ir.Func) [][]int {
	preds := make([][]int, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		term := &b.Ins[len(b.Ins)-1]
		switch term.Op {
		case ir.OpBr:
			preds[term.Blk0] = append(preds[term.Blk0], bi)
		case ir.OpCondBr:
			preds[term.Blk0] = append(preds[term.Blk0], bi)
			if term.Blk1 != term.Blk0 {
				preds[term.Blk1] = append(preds[term.Blk1], bi)
			}
		}
	}
	return preds
}

// reversePostorder returns the reachable blocks in reverse postorder of a
// DFS from entry (the canonical forward-dataflow iteration order).
func reversePostorder(fn *ir.Func) []int {
	seen := make([]bool, len(fn.Blocks))
	post := make([]int, 0, len(fn.Blocks))
	var walk func(int)
	walk = func(bi int) {
		seen[bi] = true
		term := &fn.Blocks[bi].Ins[len(fn.Blocks[bi].Ins)-1]
		switch term.Op {
		case ir.OpBr:
			if !seen[term.Blk0] {
				walk(term.Blk0)
			}
		case ir.OpCondBr:
			if !seen[term.Blk0] {
				walk(term.Blk0)
			}
			if !seen[term.Blk1] {
				walk(term.Blk1)
			}
		}
		post = append(post, bi)
	}
	walk(0)
	rpo := make([]int, len(post))
	for i, bi := range post {
		rpo[len(post)-1-i] = bi
	}
	return rpo
}

// immediateDominators computes each reachable block's immediate dominator
// with the Cooper-Harvey-Kennedy iterative algorithm over reverse
// postorder. Unreachable blocks get idom -1; the entry is its own idom.
func immediateDominators(fn *ir.Func, rpo []int, preds [][]int) []int {
	nb := len(fn.Blocks)
	rpoNum := make([]int, nb)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, bi := range rpo {
		rpoNum[bi] = i
	}
	idom := make([]int, nb)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for {
		changed := false
		for _, bi := range rpo[1:] {
			newIdom := -1
			for _, p := range preds[bi] {
				if idom[p] < 0 {
					continue // unreachable or unprocessed predecessor
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[bi] != newIdom {
				idom[bi] = newIdom
				changed = true
			}
		}
		if !changed {
			return idom
		}
	}
}

// dominates reports whether block a dominates block b (by walking b's
// idom chain up to the entry).
func dominates(idom []int, a, b int) bool {
	if a == b {
		return true
	}
	for b != 0 {
		b = idom[b]
		if b < 0 {
			return false
		}
		if b == a {
			return true
		}
	}
	return a == 0
}

// saDefBlocks maps each single-assignment register to its defining block
// (-1 for parameters, which every block may read, and for promoted
// registers, whose validity the dataflow alone establishes).
func saDefBlocks(fn *ir.Func) []int {
	db := make([]int, fn.NumRegs)
	for i := range db {
		db[i] = -1
	}
	mutable := fn.MutableRegSet()
	for bi, b := range fn.Blocks {
		for ii := range b.Ins {
			if d := b.Ins[ii].Dst; d >= 0 && d < len(db) && !mutable[d] {
				db[d] = bi
			}
		}
	}
	for i := range fn.Params {
		if i < len(db) {
			db[i] = -1
		}
	}
	return db
}
