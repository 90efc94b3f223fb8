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
// the same metadata) on every path from entry. The lattice is the partial
// map d→s; a register mov generates its pair, any write to either side kills
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
// The available-copy state is a copySet: a dense d→s array over the
// function's registers plus the list of d's it holds, so a lookup is an
// index, a definition that is no pair's source kills in O(1), and a reset
// touches only the pairs it clears. Each block's OUT is the set's pairs
// sorted by d, so the meet is a sorted intersection and the fixpoint test
// a slice comparison.
//
// The block-local pass runs first although, on the bundled workloads,
// this one reaches the same code without it: the local pass and its
// dead-mov elision leave every available-copy set small. setjmp is the same
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
	"cmp"
	"slices"

	"repro/internal/ir"
)

// copySet is a set of available copy pairs (d, s) over one function's
// registers: register d holds the value of register s. It is a sparse set
// keyed by d, with a count of the pairs naming each register as source so
// that a definition no pair reads from kills in O(1).
type copySet struct {
	src  []int32 // src[d]: the register d copies, or -1
	pos  []int32 // pos[d]: d's index in dsts while src[d] >= 0
	refs []int32 // refs[s]: the number of pairs whose source is s
	dsts []int32 // the d's with src[d] >= 0, in no particular order
}

// copyPair is one available copy: register d holds the value of s.
type copyPair struct{ d, s int32 }

// newCopySet returns an empty set over nregs registers.
func newCopySet(nregs int) *copySet {
	buf := make([]int32, 4*nregs)
	st := &copySet{
		src:  buf[:nregs:nregs],
		pos:  buf[nregs : 2*nregs : 2*nregs],
		refs: buf[2*nregs : 3*nregs : 3*nregs],
		dsts: buf[3*nregs : 3*nregs : 4*nregs],
	}
	for i := range st.src {
		st.src[i] = -1
	}
	return st
}

// lookup returns the register r copies, if a pair for r is available.
func (st *copySet) lookup(r int) (int, bool) {
	s := st.src[r]
	return int(s), s >= 0
}

// add records the pair (d, s); d must hold no pair.
func (st *copySet) add(d, s int) {
	st.src[d] = int32(s)
	st.pos[d] = int32(len(st.dsts))
	st.dsts = append(st.dsts, int32(d))
	st.refs[s]++
}

// remove drops d's pair, which must be present.
func (st *copySet) remove(d int32) {
	st.refs[st.src[d]]--
	st.src[d] = -1
	i, last := st.pos[d], st.dsts[len(st.dsts)-1]
	st.dsts[i], st.pos[last] = last, i
	st.dsts = st.dsts[:len(st.dsts)-1]
}

// kill applies a write to register d: the pair for d and every pair whose
// source is d stop being available.
func (st *copySet) kill(d int) {
	if st.src[d] >= 0 {
		st.remove(int32(d))
	}
	for i := 0; st.refs[d] > 0; {
		if t := st.dsts[i]; st.src[t] == int32(d) {
			st.remove(t) // swaps the last pair into slot i
		} else {
			i++
		}
	}
}

// reset empties the set.
func (st *copySet) reset() {
	for _, d := range st.dsts {
		st.refs[st.src[d]] = 0
		st.src[d] = -1
	}
	st.dsts = st.dsts[:0]
}

// appendPairs appends the set's pairs to buf, sorted by d.
func (st *copySet) appendPairs(buf []copyPair) []copyPair {
	n := len(buf)
	for _, d := range st.dsts {
		buf = append(buf, copyPair{d, st.src[d]})
	}
	slices.SortFunc(buf[n:], func(a, b copyPair) int { return cmp.Compare(a.d, b.d) })
	return buf
}

// crossBlockCopyProp runs the available-copies dataflow and rewrites uses,
// with st (empty, over fn's registers) as its working state. Returns true
// if the function changed (so the caller can re-run dead-mov elision).
func crossBlockCopyProp(fn *ir.Func, st *copySet) bool {
	if len(fn.Blocks) < 2 {
		return false // the block-local pass already saw everything
	}
	rpo := reversePostorder(fn)
	preds := predLists(fn)
	idom := immediateDominators(fn, rpo, preds)
	defBlock := saDefBlocks(fn)

	cf := newCopyFlow(fn, st)
	cf.solve(rpo, preds)

	// Rebuild each reachable block's IN from its predecessors and rewrite.
	changed := false
	for _, bi := range rpo {
		cf.meetPreds(preds[bi], bi)
		b := fn.Blocks[bi]
		for ii := range b.Ins {
			in := &b.Ins[ii]
			changed = substUses(in, st, idom, defBlock, bi) || changed
			copyTransfer(in, st)
		}
	}
	st.reset()
	return changed
}

// substUses rewrites the register uses of one instruction through the
// available-copy set, chasing chains to their root. A single-assignment
// replacement register must be defined in a block dominating the use.
func substUses(in *ir.Instr, st *copySet, idom []int, defBlock []int, bi int) bool {
	changed := false
	sub := func(v *ir.Value) {
		if v.Kind != ir.ValReg {
			return
		}
		r := v.Reg
		// Chains are acyclic (generating (d,s) requires s live, and a
		// write to s kills (d,s)), but bound the walk anyway.
		for hops := 0; hops < len(idom)+8; hops++ {
			s, ok := st.lookup(r)
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
func copyTransfer(in *ir.Instr, st *copySet) {
	if isSetjmpBarrier(in) {
		st.reset()
		return
	}
	d := in.Dst
	if d < 0 {
		return
	}
	st.kill(d)
	if in.Op == ir.OpMov && in.A.Kind == ir.ValReg && in.A.Reg != d {
		st.add(d, in.A.Reg)
	}
}

// copyFlow is the cross-block pass's dataflow state: each block's OUT
// pairs, sorted by d, and the working set the meet and transfer act on.
type copyFlow struct {
	fn  *ir.Func
	st  *copySet
	out [][]copyPair // nil until computed (⊤); a computed empty OUT is non-nil
	// slab backs every OUT: a changed OUT is appended, never overwritten,
	// so the OUT slices stay valid as the slab grows.
	slab     []copyPair
	cur, acc []copyPair // scratch: the block's new OUT, the running meet
}

// noPairs is the computed empty OUT, distinct from the nil ⊤.
var noPairs = []copyPair{}

// newCopyFlow returns the state for fn with st as its working set. The
// slab starts with room for one pair per block, which after the local
// pass's cleanup is more than the bundled functions' OUTs ever take.
func newCopyFlow(fn *ir.Func, st *copySet) copyFlow {
	n, nb := len(st.src), len(fn.Blocks)
	buf := make([]copyPair, 2*n+nb)
	return copyFlow{
		fn:   fn,
		st:   st,
		out:  make([][]copyPair, nb),
		cur:  buf[:0:n],
		acc:  buf[n : n : 2*n],
		slab: buf[2*n : 2*n : 2*n+nb],
	}
}

// solve computes each reachable block's OUT copy set by iterating the
// transfer function over reverse postorder until fixpoint.
func (cf *copyFlow) solve(rpo []int, preds [][]int) {
	for {
		changed := false
		for _, bi := range rpo {
			cf.meetPreds(preds[bi], bi)
			for ii := range cf.fn.Blocks[bi].Ins {
				copyTransfer(&cf.fn.Blocks[bi].Ins[ii], cf.st)
			}
			cf.cur = cf.st.appendPairs(cf.cur[:0])
			// nil means ⊤ (never computed); an empty OUT is a real bottom
			// and must replace it even when the contents compare equal.
			if cf.out[bi] == nil || !slices.Equal(cf.out[bi], cf.cur) {
				cf.out[bi] = cf.keep(cf.cur)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// keep stores an OUT in the slab and returns its stable copy.
func (cf *copyFlow) keep(pairs []copyPair) []copyPair {
	if len(pairs) == 0 {
		return noPairs
	}
	i := len(cf.slab)
	cf.slab = append(cf.slab, pairs...)
	return cf.slab[i:len(cf.slab):len(cf.slab)]
}

// meetPreds loads the working set with the intersection of the
// predecessors' OUT sets (entry and blocks whose predecessors are all
// unprocessed start empty — the conservative bottom).
func (cf *copyFlow) meetPreds(preds []int, bi int) {
	cf.st.reset()
	if bi == 0 {
		return
	}
	acc, seen := cf.acc[:0], false
	for _, p := range preds {
		po := cf.out[p]
		if po == nil {
			continue // unprocessed on this sweep: ⊤, identity for ∩
		}
		if !seen {
			acc, seen = append(acc, po...), true
			continue
		}
		acc = intersectPairs(acc, po)
	}
	for _, c := range acc {
		cf.st.add(int(c.d), int(c.s))
	}
	cf.acc = acc
}

// intersectPairs keeps the pairs of a (sorted by d) that b (sorted by d)
// also holds, in place.
func intersectPairs(a, b []copyPair) []copyPair {
	out, j := a[:0], 0
	for _, c := range a {
		for j < len(b) && b[j].d < c.d {
			j++
		}
		if j < len(b) && b[j] == c {
			out = append(out, c)
		}
	}
	return out
}

// ---- CFG scaffolding ----

// predLists returns each block's predecessor list (reachability-agnostic:
// an edge counts whether or not its source is reachable). The lists share
// one backing array.
func predLists(fn *ir.Func) [][]int {
	n := make([]int, len(fn.Blocks))
	edges := 0
	for _, b := range fn.Blocks {
		for _, t := range blockSuccs(b) {
			if t >= 0 {
				n[t]++
				edges++
			}
		}
	}
	flat := make([]int, edges)
	preds := make([][]int, len(fn.Blocks))
	off := 0
	for bi := range preds {
		preds[bi] = flat[off : off : off+n[bi]]
		off += n[bi]
	}
	for bi, b := range fn.Blocks {
		for _, t := range blockSuccs(b) {
			if t >= 0 {
				preds[t] = append(preds[t], bi)
			}
		}
	}
	return preds
}

// blockSuccs returns a block's distinct successors, -1 marking an absent
// one.
func blockSuccs(b *ir.Block) [2]int {
	term := &b.Ins[len(b.Ins)-1]
	switch {
	case term.Op == ir.OpBr, term.Op == ir.OpCondBr && term.Blk1 == term.Blk0:
		return [2]int{term.Blk0, -1}
	case term.Op == ir.OpCondBr:
		return [2]int{term.Blk0, term.Blk1}
	}
	return [2]int{-1, -1}
}

// reversePostorder returns the reachable blocks in reverse postorder of a
// DFS from entry (the canonical forward-dataflow iteration order).
func reversePostorder(fn *ir.Func) []int {
	seen := make([]bool, len(fn.Blocks))
	post := make([]int, 0, len(fn.Blocks))
	var walk func(int)
	walk = func(bi int) {
		seen[bi] = true
		for _, t := range blockSuccs(fn.Blocks[bi]) {
			if t >= 0 && !seen[t] {
				walk(t)
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
