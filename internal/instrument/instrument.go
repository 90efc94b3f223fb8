// Package instrument implements the protection passes of the Levee
// reproduction. Each pass rewrites/flags an IR program in place, mirroring
// the LLVM passes of §4:
//
//   - SafeStack (§3.2.4): escape analysis decides which frame objects move
//     to the unsafe stack; everything else (return addresses, scalars,
//     proven-safe objects) stays on the isolated safe stack.
//   - WithBackend: the one pointer-integrity pass. A shared classification
//     front (safe-stack skip, type classifier, char* string heuristic,
//     points-to pruning) decides which operations are sensitive; the
//     protection's backend (cps §3.3, cpi §3.2.1–§3.2.2, pac) decides how
//     each is flagged.
//   - SoftBound: full spatial memory safety baseline (every pointer-typed
//     access carries metadata, every computed access is checked).
//   - CFI: coarse-grained indirect-call target checks (baseline).
//
// Passes are idempotent and ordered: SafeStack must run before a backend
// that composes with it, so accesses to safe-stack objects can be left
// uninstrumented.
package instrument

import (
	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/minic/builtins"
)

// SafeStack runs the safe stack pass: escape analysis, unsafe marking, and
// frame relayout.
func SafeStack(p *ir.Program) {
	for _, f := range p.Funcs {
		if f.External {
			continue
		}
		analysis.EscapeAnalysis(f)
		for _, obj := range f.Frame {
			obj.Unsafe = obj.AddrEscapes
		}
		f.Layout()
	}
	p.Protection = append(p.Protection, "safestack")
}

// Opts configures the backend pass.
type Opts struct {
	// SensitiveStructs lists struct tags the programmer marked sensitive
	// (§3.2.1: "such as struct ucred used in the FreeBSD kernel to store
	// process UIDs"). Accesses to values of or into these structs are
	// protected like code pointers.
	SensitiveStructs []string

	// PointsTo, when non-nil and valid, prunes type-flagged operations
	// whose abstract targets provably never hold code pointers (the
	// whole-program sensitivity propagation refining the local type
	// classifier). Annotated-struct compilations must not pass one: the
	// solver does not model annotation sensitivity, and the caller is
	// expected to fall back to pure type-based classification there.
	PointsTo *analysis.PointsTo
}

// WithBackend runs the protection instrumentation for one backend (a
// backend.Protection's Backend): the shared classification front
// (safe-stack skip, type classifier, string heuristic, points-to pruning)
// decides which operations are sensitive, and the backend decides how each
// surviving operation is flagged. SafeStack must have run first when the
// backend composes with it (bk.SafeStack()).
func WithBackend(p *ir.Program, bk backend.Backend, opts Opts) analysis.Stats {
	annotated := annotSet{}
	if bk.Scope() == backend.ScopeFull {
		// Annotations are a full-scope feature; code-scope backends ignore
		// SensitiveStructs entirely.
		for _, n := range opts.SensitiveStructs {
			annotated[n] = true
		}
	}
	for _, f := range p.Funcs {
		if f.External {
			continue
		}
		instrumentFunc(p, f, bk, annotated, opts.PointsTo)
	}
	markGlobals(p, annotated)
	p.Protection = append(p.Protection, bk.Name())
	return analysis.Collect(p)
}

// annotSet holds the sensitive-struct tags of one WithBackend run. It is
// threaded through the pass explicitly so concurrent compilations (the
// parallel evaluation harness) never share mutable pass state.
type annotSet map[string]bool

// covers reports whether t is or contains an annotated struct.
func (a annotSet) covers(t *ctypes.Type) bool {
	if len(a) == 0 || t == nil {
		return false
	}
	switch t.Kind {
	case ctypes.KindStruct:
		if a[t.Struct.Name] {
			return true
		}
		for i := range t.Struct.Fields {
			if a.covers(t.Struct.Fields[i].Type) {
				return true
			}
		}
	case ctypes.KindArray:
		return a.covers(t.Elem)
	}
	return false
}

// SoftBound runs the full-memory-safety baseline pass: every pointer-typed
// access maintains metadata and every computed access is checked. There is
// no safe stack, so all slots are in regular memory and direct accesses are
// instrumented too; there is no points-to pruning either.
func SoftBound(p *ir.Program) analysis.Stats {
	for _, f := range p.Funcs {
		if f.External {
			continue
		}
		fi := analysis.Analyze(f)
		markFrame(f)
		for _, b := range f.Blocks {
			for i := range b.Ins {
				in := &b.Ins[i]
				switch in.Op {
				case ir.OpLoad, ir.OpStore:
					if in.Ty == nil {
						continue
					}
					if in.Ty.IsPtr() {
						in.Flags |= ir.ProtSB
						if in.Ty.IsUniversalPtr() {
							in.Flags |= ir.ProtUniversal
						}
					}
					if in.A.Kind == ir.ValReg {
						in.Flags |= ir.ProtSBCheck
					}
				case ir.OpCall:
					if in.Callee < 0 {
						flagIntrinsic(p, fi, in, nil, ir.ProtCPIStore, ir.ProtSafeIntr, containsPtr)
					}
				}
			}
		}
	}
	markGlobals(p, nil)
	p.Protection = append(p.Protection, "softbound")
	return analysis.Collect(p)
}

// CFI flags every indirect call for target-set checking.
func CFI(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Ins {
				if b.Ins[i].Op == ir.OpICall {
					b.Ins[i].Flags |= ir.ProtCFI
				}
			}
		}
	}
	p.Protection = append(p.Protection, "cfi")
}

// markGlobals marks sensitive globals (informational; the loader seeds the
// backend's metadata from initializers either way) and annotated ones (the
// loader must seed their initial values).
func markGlobals(p *ir.Program, annotated annotSet) {
	for _, g := range p.Globals {
		if ctypes.Sensitive(g.Type) {
			g.Sensitive = true
		}
		if annotated.covers(g.Type) {
			g.Annotated = true
		}
	}
}

// markFrame marks the frame objects of sensitive type.
func markFrame(f *ir.Func) {
	for _, obj := range f.Frame {
		if ctypes.Sensitive(obj.Type) {
			obj.Sensitive = true
		}
	}
}

// instrumentFunc flags one function's sensitive operations for bk.
func instrumentFunc(p *ir.Program, f *ir.Func, bk backend.Backend, annotated annotSet, pt *analysis.PointsTo) {
	fi := analysis.Analyze(f)
	var uses map[int][]*ir.Instr // built by stringHeuristic on first need
	markFrame(f)
	touches := ctypes.Sensitive
	if bk.Scope() == backend.ScopeCode {
		// Code-scope backends care about code-pointer-carrying regions only.
		touches = func(t *ctypes.Type) bool { return containsCodePtr(t, map[*ctypes.Struct]bool{}) }
	}
	for _, b := range f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			switch in.Op {
			case ir.OpLoad, ir.OpStore:
				flagMemOp(p, fi, &uses, in, bk, annotated, pt)
			case ir.OpCall:
				if in.Callee < 0 {
					flagIntrinsic(p, fi, in, pt, bk.SetjmpFlags(), bk.SafeIntrFlags(), touches)
				}
			}
		}
	}
}

// safeStackDirect reports whether the access address is a direct reference
// to a safe-stack-resident object: already isolated, no instrumentation
// needed (§3.2.4 — most stack accesses are proven safe).
func safeStackDirect(fi *analysis.FuncInfo, v ir.Value) bool {
	return v.Kind == ir.ValFrame && !fi.Fn.Frame[v.Index].Unsafe
}

// flagMemOp decides the instrumentation of one load/store: the shared
// classification front — safe-stack skip, annotation covers, type
// classifier, string heuristic, points-to pruning — picks the class, the
// backend emits the flags.
func flagMemOp(p *ir.Program, fi *analysis.FuncInfo, uses *map[int][]*ir.Instr, in *ir.Instr, bk backend.Backend, annotated annotSet, pt *analysis.PointsTo) {
	ty := in.Ty
	if ty == nil || safeStackDirect(fi, in.A) {
		return
	}
	regAddr := in.A.Kind == ir.ValReg
	var class backend.Class
	switch {
	case bk.Scope() == backend.ScopeFull && len(annotated) > 0 && in.Size == 8 &&
		annotated.covers(fi.PointeeType(p, in.A, 0)):
		// Programmer-annotated data (§3.2.1): protect the value itself,
		// whatever its type.
		in.Flags |= bk.MemOp(backend.ClassAnnotated, regAddr)
		return
	case ty.IsUniversalPtr():
		class = backend.ClassUniversal
	case bk.Scope() == backend.ScopeCode && ty.IsFuncPtr():
		// Code scope: code pointers and universal pointers only (§3.3).
		class = backend.ClassFuncPtr
	case bk.Scope() == backend.ScopeFull && (ctypes.SensitivePtr(ty) || ctypes.Sensitive(ty)):
		class = backend.ClassSensitive
	default:
		return
	}
	// If every abstract target of the address is provably non-sensitive
	// (whole-program refinement of the type classifier) the backend can
	// protect nothing under it; and manifest strings are not universal
	// pointers. Either way, leave it plain.
	if pt.Prunable(fi.Fn, in.A) || stringHeuristic(fi, uses, in) {
		return
	}
	in.Flags |= bk.MemOp(class, regAddr)
}

// stringHeuristic applies the §3.2.1 char* refinement: char* values that
// are manifestly strings are not treated as universal pointers. *uses is
// the function's register-use map, built here on the first char* access
// that reaches the heuristic (most functions have none).
func stringHeuristic(fi *analysis.FuncInfo, uses *map[int][]*ir.Instr, in *ir.Instr) bool {
	if in.Ty == nil || !in.Ty.IsPtr() || in.Ty.Elem.Kind != ctypes.KindChar {
		return false // only char*, not void*
	}
	if *uses == nil {
		*uses = analysis.Uses(fi.Fn)
	}
	if in.Op == ir.OpStore {
		return analysis.StringLike(fi, in.B, *uses)
	}
	// Loads: string-like if the loaded value flows into string functions.
	return analysis.StringLike(fi, ir.Reg(in.Dst), *uses)
}

// flagIntrinsic classifies memory-manipulation intrinsics (§3.2.2) and
// setjmp (implicit code pointers, §3.2.1). setjmp calls get setjmpFl;
// memcpy/memmove/memset/free calls whose region may hold protected data
// (touches on the argument's real pointee type, §3.2.2: "analyzes the real
// types of the arguments prior to being cast to void*") get safeFl.
func flagIntrinsic(p *ir.Program, fi *analysis.FuncInfo, in *ir.Instr, pt *analysis.PointsTo, setjmpFl, safeFl ir.Prot, touches func(*ctypes.Type) bool) {
	// prunedArg refines the type-based argument analysis: if every abstract
	// object the argument may point to is non-sensitive, the region can
	// hold no protected entries, so the plain variant is equivalent.
	prunedArg := func(i int) bool {
		return i < len(in.Args) && pt.Prunable(fi.Fn, in.Args[i])
	}
	mayTouch := func(i int) bool {
		if i >= len(in.Args) {
			return false
		}
		t := fi.PointeeType(p, in.Args[i], 0)
		return t == nil || touches(t) // unknown: conservative
	}
	switch in.Intr {
	case builtins.Setjmp:
		in.Flags |= setjmpFl
	case builtins.Memcpy, builtins.Memmove:
		if prunedArg(0) && prunedArg(1) {
			return
		}
		if mayTouch(0) || mayTouch(1) {
			in.Flags |= safeFl
		}
	case builtins.Memset, builtins.Free:
		// Both clear protected state keyed by the pointed-to region: memset
		// overwrites it, and free() must invalidate the entries covering it
		// (otherwise a dangling entry still validates when the allocator
		// reuses the address). Regions statically proven insensitive keep
		// the plain variants.
		if prunedArg(0) {
			return
		}
		if mayTouch(0) {
			in.Flags |= safeFl
		}
	}
}

func containsPtr(t *ctypes.Type) bool {
	switch t.Kind {
	case ctypes.KindPtr:
		return true
	case ctypes.KindArray:
		return containsPtr(t.Elem)
	case ctypes.KindStruct:
		for i := range t.Struct.Fields {
			if containsPtr(t.Struct.Fields[i].Type) {
				return true
			}
		}
	}
	return false
}

func containsCodePtr(t *ctypes.Type, seen map[*ctypes.Struct]bool) bool {
	switch t.Kind {
	case ctypes.KindPtr:
		return t.IsFuncPtr() || t.IsUniversalPtr()
	case ctypes.KindArray:
		return containsCodePtr(t.Elem, seen)
	case ctypes.KindStruct:
		if seen[t.Struct] {
			return false
		}
		seen[t.Struct] = true
		for i := range t.Struct.Fields {
			if containsCodePtr(t.Struct.Fields[i].Type, seen) {
				return true
			}
		}
	}
	return false
}
