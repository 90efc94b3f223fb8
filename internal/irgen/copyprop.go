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
// A use rewrites whenever the dataflow holds a pair for it, with no
// separate dominance test: a pair (d, s) available at a use means every
// path from entry reached the use through `d = mov s` with no write to d
// or s since, so the use reads the value that mov read. It also means s
// is must-defined at the use wherever it was must-defined at each such
// mov, so the VM's register-clear elision (ir.Func.RegsDefBeforeUse)
// decides the same before and after the pass.
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
	cf := newCopyFlow(fn, st)
	cf.solve(rpo, preds)

	// Rebuild each reachable block's IN from its predecessors and rewrite.
	changed := false
	for _, bi := range rpo {
		cf.meetPreds(preds[bi], bi)
		b := fn.Blocks[bi]
		for ii := range b.Ins {
			in := &b.Ins[ii]
			changed = substUses(in, st) || changed
			copyTransfer(in, st)
		}
	}
	st.reset()
	return changed
}

// substUses rewrites the register uses of one instruction through the
// available-copy set, chasing chains to their root.
func substUses(in *ir.Instr, st *copySet) bool {
	changed := false
	sub := func(v *ir.Value) {
		if v.Kind != ir.ValReg {
			return
		}
		r := v.Reg
		// Chains are acyclic (generating (d,s) requires s live, and a
		// write to s kills (d,s)), but bound the walk by the pairs held.
		for hops := len(st.dsts); hops > 0; hops-- {
			s, ok := st.lookup(r)
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
// an edge counts whether or not its source is reachable; a condbr with
// equal targets counts twice). The lists share one backing array.
func predLists(fn *ir.Func) [][]int {
	n := make([]int, len(fn.Blocks))
	edges := 0
	for _, b := range fn.Blocks {
		succs, ns := b.Succs()
		for _, t := range succs[:ns] {
			n[t]++
		}
		edges += ns
	}
	flat := make([]int, edges)
	preds := make([][]int, len(fn.Blocks))
	off := 0
	for bi := range preds {
		preds[bi] = flat[off : off : off+n[bi]]
		off += n[bi]
	}
	for bi, b := range fn.Blocks {
		succs, ns := b.Succs()
		for _, t := range succs[:ns] {
			preds[t] = append(preds[t], bi)
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
		succs, ns := fn.Blocks[bi].Succs()
		for _, t := range succs[:ns] {
			if !seen[t] {
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
