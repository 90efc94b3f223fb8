// Whole-program sensitivity propagation (§3.2.1's "over-approximate set of
// sensitive pointers" made precise): a flow-insensitive, interprocedural
// Andersen-style inclusion-constraint points-to analysis over abstract
// objects, followed by a transitive may-reach-code-pointer closure over the
// object graph. The instrument pass consults the result to leave
// universal-pointer operations uninstrumented when their abstract targets
// provably never hold code pointers; the bare type classifier remains the
// sound fallback whenever the solver bails (exhausted budget, or the caller
// declines to run it for annotated-struct compilations).
//
// Abstraction:
//
//   - One abstract object per frame slot, global, string literal, function,
//     and heap allocation site (malloc/calloc call site). Object 0 is the
//     distinguished Unknown object standing for all untracked memory
//     (external callees' reachable state, integers cast to pointers).
//   - One constraint variable per (function, virtual register), one per
//     function return value, one per abstract object's contents
//     (field-insensitive), plus lazily-created singleton variables for
//     direct address operands.
//   - Inclusion constraints from Addr/Mov/Cast/GEP/Bin (copy), Load/Store
//     (deref), Call/Ret (parameter/return wiring), with indirect calls wired
//     iteratively as function objects reach their target variable, and
//     intrinsics modeled individually (memcpy moves contents, setjmp makes
//     the buffer reach Unknown, unmodeled externals escape their arguments).
//
// Soundness of pruning rests on one invariant: no safe-pointer-store entry
// is ever created under an address belonging to a non-sensitive object. The
// closure enforces it with four rules, iterated to fixpoint:
//
//	(a) an object whose contents may include a sensitive object is
//	    sensitive (the transitive may-reach-code-pointer closure);
//	(b) every object reachable from Unknown is sensitive (untracked code
//	    may store code pointers anywhere it reaches);
//	(c) access equivalence: if a register-addressed word operation may
//	    target both a sensitive and a non-sensitive object, all its
//	    targets become sensitive — otherwise one static operation would
//	    need to be both instrumented and not;
//	(d) safe memcpy/memmove variants migrate safe-store entries from
//	    source to destination (sps.CopyRange), so a copy site whose
//	    source may be sensitive makes every destination object sensitive.
//
// With the invariant, pruning a type-flagged operation whose targets are
// all non-sensitive is behavior-preserving: the safe store can hold no
// entry under any address the operation touches, so the flagged form would
// have taken its miss path (regular memory) anyway.
package analysis

import (
	"repro/internal/ir"
	"repro/internal/minic/builtins"
)

// DefaultPointsToBudget bounds the number of (variable, object) propagation
// steps the solver processes before declaring the analysis exhausted (and
// itself invalid, reverting instrumentation to the type-based classifier).
// The bound is far above what the largest workloads need; it exists so a
// pathological constraint graph degrades to the sound fallback instead of
// hanging the compiler.
const DefaultPointsToBudget = 4_000_000

type objKind uint8

const (
	objUnknown objKind = iota
	objFunc
	objGlobal
	objString
	objFrame
	objHeap
)

type ptObject struct {
	kind objKind
	fn   int // objFunc: function index; objFrame/objHeap: owning function
	idx  int // objFrame: frame index; objGlobal/objString: table index; objHeap: site ordinal
}

type ptWork struct{ v, o int32 }

type ptICall struct {
	args  []int32
	dst   int32
	wired map[int32]bool // objects already dispatched at this site
}

// PointsTo is the solved analysis. Valid reports whether the solver reached
// a fixpoint within budget; when false every query answers conservatively
// (nothing is prunable).
type PointsTo struct {
	Valid bool

	prog *ir.Program
	fidx map[*ir.Func]int

	objs []ptObject
	sens []bool

	funcObj   []int32
	globalObj []int32
	stringObj []int32
	frameObj  [][]int32

	regBase []int32 // first register variable of each function
	retv    []int32 // return-value variable of each function
	objv    []int32 // contents variable of each object

	pts      []map[int32]struct{}
	succs    [][]int32
	loadsAt  [][]int32
	storesAt [][]int32
	icallsAt [][]int32

	addrv map[int32]int32 // object -> singleton address variable

	edges      map[int64]struct{}
	work       []ptWork
	icallSites []ptICall

	memopVars [][2]int32 // closure rule (c): [addr var, unused] of reg-addressed word memops
	copySites [][2]int32 // closure rule (d): [src var, dst var] of memcpy/memmove sites

	budget    int
	exhausted bool
}

// SolvePointsTo runs the analysis with the default budget.
func SolvePointsTo(p *ir.Program) *PointsTo {
	return SolvePointsToBudget(p, DefaultPointsToBudget)
}

// SolvePointsToBudget runs the analysis with an explicit propagation budget.
func SolvePointsToBudget(p *ir.Program, budget int) *PointsTo {
	s := &PointsTo{
		prog:   p,
		fidx:   make(map[*ir.Func]int, len(p.Funcs)),
		addrv:  map[int32]int32{},
		edges:  map[int64]struct{}{},
		budget: budget,
	}
	s.build()
	s.generate()
	s.solve()
	if !s.exhausted {
		s.close()
		s.Valid = true
	}
	return s
}

func (s *PointsTo) newVar() int32 {
	v := int32(len(s.pts))
	s.pts = append(s.pts, nil)
	s.succs = append(s.succs, nil)
	s.loadsAt = append(s.loadsAt, nil)
	s.storesAt = append(s.storesAt, nil)
	s.icallsAt = append(s.icallsAt, nil)
	return v
}

func (s *PointsTo) newObj(kind objKind, fn, idx int) int32 {
	o := int32(len(s.objs))
	s.objs = append(s.objs, ptObject{kind: kind, fn: fn, idx: idx})
	s.objv = append(s.objv, s.newVar())
	return o
}

// addrVar returns the singleton variable holding exactly {o}, for direct
// address operands (the address of a frame slot, global, string, function).
func (s *PointsTo) addrVar(o int32) int32 {
	if v, ok := s.addrv[o]; ok {
		return v
	}
	v := s.newVar()
	s.addrv[o] = v
	s.addObj(v, o)
	return v
}

func (s *PointsTo) addObj(v, o int32) {
	if v < 0 {
		return
	}
	set := s.pts[v]
	if set == nil {
		set = map[int32]struct{}{}
		s.pts[v] = set
	}
	if _, ok := set[o]; ok {
		return
	}
	set[o] = struct{}{}
	s.work = append(s.work, ptWork{v, o})
}

func (s *PointsTo) addEdge(from, to int32) {
	if from < 0 || to < 0 || from == to {
		return
	}
	key := int64(from)<<32 | int64(to)
	if _, ok := s.edges[key]; ok {
		return
	}
	s.edges[key] = struct{}{}
	s.succs[from] = append(s.succs[from], to)
	for o := range s.pts[from] {
		s.addObj(to, o)
	}
}

func (s *PointsTo) build() {
	// Size the per-object and per-variable slices once: one contents
	// variable per object, at most one singleton address variable per
	// object, each function's register block and return variable. Only
	// heap sites and copy temporaries, added while generating, grow them.
	nobj, nregs := 1+len(s.prog.Funcs)+len(s.prog.Globals)+len(s.prog.Strings), 0
	for _, f := range s.prog.Funcs {
		nobj += len(f.Frame)
		nregs += max(f.NumRegs, 1)
	}
	nvars := 2*nobj + nregs + len(s.prog.Funcs)
	s.objs = make([]ptObject, 0, nobj)
	s.objv = make([]int32, 0, nobj)
	s.pts = make([]map[int32]struct{}, 0, nvars)
	s.succs = make([][]int32, 0, nvars)
	s.loadsAt = make([][]int32, 0, nvars)
	s.storesAt = make([][]int32, 0, nvars)
	s.icallsAt = make([][]int32, 0, nvars)

	// Object 0: Unknown. Untracked memory may reach more untracked memory.
	s.newObj(objUnknown, -1, -1)
	s.addObj(s.objv[0], 0)

	s.funcObj = make([]int32, len(s.prog.Funcs))
	s.globalObj = make([]int32, len(s.prog.Globals))
	s.stringObj = make([]int32, len(s.prog.Strings))
	s.frameObj = make([][]int32, len(s.prog.Funcs))
	s.regBase = make([]int32, len(s.prog.Funcs))
	s.retv = make([]int32, len(s.prog.Funcs))

	for i, f := range s.prog.Funcs {
		s.fidx[f] = i
		s.funcObj[i] = s.newObj(objFunc, i, -1)
	}
	for i := range s.prog.Globals {
		s.globalObj[i] = s.newObj(objGlobal, -1, i)
	}
	for i := range s.prog.Strings {
		s.stringObj[i] = s.newObj(objString, -1, i)
	}
	for i, f := range s.prog.Funcs {
		s.frameObj[i] = make([]int32, len(f.Frame))
		for j := range f.Frame {
			s.frameObj[i][j] = s.newObj(objFrame, i, j)
		}
		// Register block (one variable even for register-free functions, so
		// regBase is always a valid variable index).
		s.regBase[i] = s.newVar()
		for r := 1; r < f.NumRegs; r++ {
			s.newVar()
		}
		s.retv[i] = s.newVar()
	}

	// Global initializers seed object contents exactly like the VM loader
	// seeds memory (and the safe store, for code-pointer initializers).
	for gi, g := range s.prog.Globals {
		cv := s.objv[s.globalObj[gi]]
		for _, it := range g.Init {
			switch it.Kind {
			case ir.InitFuncAddr:
				s.addObj(cv, s.funcObj[it.Index])
			case ir.InitGlobalAddr:
				s.addObj(cv, s.globalObj[it.Index])
			case ir.InitStringAddr:
				s.addObj(cv, s.stringObj[it.Index])
			}
		}
	}
}

func (s *PointsTo) generate() {
	for fi, f := range s.prog.Funcs {
		if f.External {
			continue
		}
		s.genFunc(fi, f)
	}
}

func (s *PointsTo) valueVar(fi int, f *ir.Func, v ir.Value) int32 {
	switch v.Kind {
	case ir.ValReg:
		if v.Reg < 0 || v.Reg >= f.NumRegs {
			return -1
		}
		return s.regBase[fi] + int32(v.Reg)
	case ir.ValFrame:
		return s.addrVar(s.frameObj[fi][v.Index])
	case ir.ValGlobal:
		return s.addrVar(s.globalObj[v.Index])
	case ir.ValString:
		return s.addrVar(s.stringObj[v.Index])
	case ir.ValFunc:
		return s.addrVar(s.funcObj[v.Index])
	}
	return -1
}

func (s *PointsTo) genFunc(fi int, f *ir.Func) {
	vv := func(v ir.Value) int32 { return s.valueVar(fi, f, v) }
	regv := func(r int) int32 {
		if r < 0 || r >= f.NumRegs {
			return -1
		}
		return s.regBase[fi] + int32(r)
	}
	heapSite := 0

	for _, b := range f.Blocks {
		for ii := range b.Ins {
			in := &b.Ins[ii]
			switch in.Op {
			case ir.OpMov, ir.OpAddr, ir.OpGEP:
				s.addEdge(vv(in.A), regv(in.Dst))
			case ir.OpCast:
				s.addEdge(vv(in.A), regv(in.Dst))
				// An integer reinterpreted as a pointer targets untracked
				// memory; pointer-to-pointer casts just copy. A constant
				// source is exempt: (T*)0 and fixed-address literals name no
				// tracked object (null dereferences trap at runtime).
				if in.Ty != nil && in.Ty.IsPtr() && in.FromTy != nil && !in.FromTy.IsPtr() &&
					in.A.Kind != ir.ValConst {
					s.addObj(regv(in.Dst), 0)
				}
			case ir.OpBin:
				// Pointer arithmetic stays within the base object
				// (field-insensitive): the result may be either operand's
				// target.
				s.addEdge(vv(in.A), regv(in.Dst))
				s.addEdge(vv(in.B), regv(in.Dst))
			case ir.OpLoad:
				// Integer-typed operations move no pointer values under the
				// type system the classifier itself trusts; modeling them
				// would let every int field read smear its object's pointer
				// content across the program (field-insensitivity). A code
				// pointer laundered through an int slot resurfaces only via
				// an int-to-pointer cast, which yields Unknown — sensitive,
				// never prunable — so the pruning invariant is preserved.
				if in.Ty != nil && in.Ty.IsInteger() {
					break
				}
				av := vv(in.A)
				if in.Size == 8 && av >= 0 {
					if dv := regv(in.Dst); dv >= 0 {
						s.loadsAt[av] = append(s.loadsAt[av], dv)
					}
					if in.A.Kind == ir.ValReg {
						s.memopVars = append(s.memopVars, [2]int32{av, 0})
					}
				}
			case ir.OpStore:
				if in.Ty != nil && in.Ty.IsInteger() {
					break
				}
				av := vv(in.A)
				if in.Size == 8 && av >= 0 {
					if bv := vv(in.B); bv >= 0 {
						s.storesAt[av] = append(s.storesAt[av], bv)
					}
					if in.A.Kind == ir.ValReg {
						s.memopVars = append(s.memopVars, [2]int32{av, 0})
					}
				}
			case ir.OpRet:
				if in.A.Kind != ir.ValNone {
					s.addEdge(vv(in.A), s.retv[fi])
				}
			case ir.OpCall:
				if in.Callee >= 0 {
					s.genDirectCall(fi, f, in)
				} else {
					heapSite = s.genBuiltin(fi, f, in, heapSite)
				}
			case ir.OpICall:
				site := ptICall{dst: regv(in.Dst), wired: map[int32]bool{}}
				for _, a := range in.Args {
					site.args = append(site.args, vv(a))
				}
				s.icallSites = append(s.icallSites, site)
				if av := vv(in.A); av >= 0 {
					s.icallsAt[av] = append(s.icallsAt[av], int32(len(s.icallSites)-1))
				}
			}
		}
	}
}

func (s *PointsTo) genDirectCall(fi int, f *ir.Func, in *ir.Instr) {
	callee := s.prog.Funcs[in.Callee]
	vv := func(v ir.Value) int32 { return s.valueVar(fi, f, v) }
	if callee.External {
		// Unknown code: arguments escape, result is untracked.
		for _, a := range in.Args {
			s.addEdge(vv(a), s.objv[0])
		}
		if in.Dst >= 0 && in.Dst < f.NumRegs {
			s.addObj(s.regBase[fi]+int32(in.Dst), 0)
		}
		return
	}
	for i, a := range in.Args {
		if i >= callee.NumRegs {
			break
		}
		s.addEdge(vv(a), s.regBase[in.Callee]+int32(i))
	}
	if in.Dst >= 0 && in.Dst < f.NumRegs {
		s.addEdge(s.retv[in.Callee], s.regBase[fi]+int32(in.Dst))
	}
}

// genBuiltin models the intrinsics' pointer effects. The default for an
// unmodeled intrinsic is the external-call treatment (escape + Unknown),
// so adding a builtin without updating this list degrades precision, never
// soundness.
func (s *PointsTo) genBuiltin(fi int, f *ir.Func, in *ir.Instr, heapSite int) int {
	vv := func(v ir.Value) int32 { return s.valueVar(fi, f, v) }
	dv := int32(-1)
	if in.Dst >= 0 && in.Dst < f.NumRegs {
		dv = s.regBase[fi] + int32(in.Dst)
	}
	argv := func(i int) int32 {
		if i >= len(in.Args) {
			return -1
		}
		return vv(in.Args[i])
	}

	switch in.Intr {
	case builtins.Malloc, builtins.Calloc:
		o := s.newObj(objHeap, fi, heapSite)
		heapSite++
		s.addObj(dv, o)

	case builtins.Memcpy, builtins.Memmove:
		d, src := argv(0), argv(1)
		if d >= 0 && src >= 0 {
			// Word-level content flow: *dst ⊇ *src, via a temporary.
			t := s.newVar()
			s.loadsAt[src] = append(s.loadsAt[src], t)
			s.storesAt[d] = append(s.storesAt[d], t)
			// Safe variants migrate safe-store entries (closure rule d).
			s.copySites = append(s.copySites, [2]int32{src, d})
		}
		s.addEdge(d, dv) // returns dst

	case builtins.Memset:
		s.addEdge(argv(0), dv) // fills bytes, returns dst; no pointer flow

	case builtins.Strcpy, builtins.Strncpy, builtins.Strcat, builtins.Strncat:
		// Byte copies: no word-level pointer content can flow.
		s.addEdge(argv(0), dv)

	case builtins.Setjmp:
		// The buffer receives implicit code pointers (§3.2.1): model as
		// untracked content so the buffer object is always sensitive.
		if bv := argv(0); bv >= 0 {
			s.storesAt[bv] = append(s.storesAt[bv], s.addrVar(0))
		}

	case builtins.Getenv:
		s.addObj(dv, 0) // environment memory is untracked

	case builtins.Free, builtins.Longjmp, builtins.Memcmp, builtins.Strcmp,
		builtins.Strncmp, builtins.Strlen, builtins.Printf, builtins.Puts,
		builtins.Putchar, builtins.Atoi, builtins.Abs, builtins.Rand,
		builtins.Srand, builtins.Exit, builtins.Abort, builtins.ReadInput,
		builtins.InputLen, builtins.Sscanf, builtins.Sprintf,
		builtins.Snprintf, builtins.Clock:
		// No pointer-valued content flow: results are integers or byte
		// data, and written contents (read_input, sscanf, sprintf) are
		// bytes/integers, never live code pointers.

	default:
		for i := range in.Args {
			s.addEdge(argv(i), s.objv[0])
		}
		s.addObj(dv, 0)
	}
	return heapSite
}

func (s *PointsTo) solve() {
	steps := 0
	for len(s.work) > 0 {
		steps++
		if steps > s.budget {
			s.exhausted = true
			return
		}
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		v, o := it.v, it.o
		for _, d := range s.loadsAt[v] {
			s.addEdge(s.objv[o], d)
		}
		for _, src := range s.storesAt[v] {
			s.addEdge(src, s.objv[o])
		}
		if len(s.icallsAt[v]) > 0 {
			s.dispatchICalls(v, o)
		}
		for _, d := range s.succs[v] {
			s.addObj(d, o)
		}
	}
}

func (s *PointsTo) dispatchICalls(v, o int32) {
	for _, si := range s.icallsAt[v] {
		site := &s.icallSites[si]
		if site.wired[o] {
			continue
		}
		site.wired[o] = true
		ob := s.objs[o]
		switch {
		case o == 0:
			// Completely untracked target: arguments escape, result is
			// untracked. (Function addresses that escaped to real memory
			// still arrive here as their own objFunc objects via the load
			// constraints, so this case only covers forged pointers.)
			for _, av := range site.args {
				s.addEdge(av, s.objv[0])
			}
			s.addObj(site.dst, 0)
		case ob.kind == objFunc:
			callee := s.prog.Funcs[ob.fn]
			if callee.External {
				for _, av := range site.args {
					s.addEdge(av, s.objv[0])
				}
				s.addObj(site.dst, 0)
				break
			}
			for i, av := range site.args {
				if i >= callee.NumRegs {
					break
				}
				s.addEdge(av, s.regBase[ob.fn]+int32(i))
			}
			s.addEdge(s.retv[ob.fn], site.dst)
		}
	}
}

func (s *PointsTo) close() {
	s.sens = make([]bool, len(s.objs))
	s.sens[0] = true
	for i := range s.objs {
		if s.objs[i].kind == objFunc {
			s.sens[i] = true
		}
	}
	for {
		changed := false
		mark := func(o int32) {
			if !s.sens[o] {
				s.sens[o] = true
				changed = true
			}
		}
		// (b) everything reachable from untracked memory.
		for o := range s.pts[s.objv[0]] {
			mark(o)
		}
		// (a) contents may include a sensitive object.
		for i := range s.objs {
			if s.sens[i] {
				continue
			}
			for t := range s.pts[s.objv[int32(i)]] {
				if s.sens[t] {
					s.sens[i] = true
					changed = true
					break
				}
			}
		}
		// (c) access equivalence over register-addressed word operations.
		for _, mv := range s.memopVars {
			set := s.pts[mv[0]]
			hot := false
			for o := range set {
				if s.sens[o] {
					hot = true
					break
				}
			}
			if !hot {
				continue
			}
			for o := range set {
				mark(o)
			}
		}
		// (d) entry migration through memcpy/memmove safe variants.
		for _, cp := range s.copySites {
			hot := false
			for o := range s.pts[cp[0]] {
				if s.sens[o] {
					hot = true
					break
				}
			}
			if !hot {
				continue
			}
			for o := range s.pts[cp[1]] {
				mark(o)
			}
		}
		if !changed {
			return
		}
	}
}

// Prunable reports whether a memory operation (or intrinsic pointer
// argument) with address operand v in function f may be left
// uninstrumented: the analysis reached a fixpoint, the operand's points-to
// set is known and non-empty, and every abstract target is non-sensitive.
// An empty set means the analysis saw no target at all (e.g. a forged
// address); that is never grounds for pruning.
func (pt *PointsTo) Prunable(f *ir.Func, v ir.Value) bool {
	if pt == nil || !pt.Valid {
		return false
	}
	fi, ok := pt.fidx[f]
	if !ok {
		return false
	}
	var set map[int32]struct{}
	switch v.Kind {
	case ir.ValReg:
		if v.Reg < 0 || v.Reg >= f.NumRegs {
			return false
		}
		set = pt.pts[pt.regBase[fi]+int32(v.Reg)]
	case ir.ValFrame:
		return !pt.sens[pt.frameObj[fi][v.Index]]
	case ir.ValGlobal:
		return !pt.sens[pt.globalObj[v.Index]]
	case ir.ValString:
		return !pt.sens[pt.stringObj[v.Index]]
	default:
		return false
	}
	if len(set) == 0 {
		return false
	}
	for o := range set {
		if pt.sens[o] {
			return false
		}
	}
	return true
}

// Counts reports solver size for tests and stats: abstract objects and how
// many of them the closure marked sensitive.
func (pt *PointsTo) Counts() (objects, sensitive int) {
	if pt == nil {
		return 0, 0
	}
	for _, v := range pt.sens {
		if v {
			sensitive++
		}
	}
	return len(pt.objs), sensitive
}
