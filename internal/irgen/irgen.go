// Package irgen lowers type-checked mini-C ASTs to the register IR.
//
// The lowering is deliberately naive (clang -O0 style): every local variable
// and every parameter gets a frame object, every access is an explicit load
// or store, and short-circuit/conditional expressions use compiler temporary
// slots. This matches the representation the paper's passes instrument
// (§3.2.2 notes the CPI pass runs before optimizations).
package irgen

import (
	"fmt"
	"sync"

	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/minic/ast"
	"repro/internal/minic/builtins"
)

// Options tunes the lowering.
type Options struct {
	// PromoteRegisters runs the mem2reg-style register promotion pass after
	// the naive lowering: non-address-taken scalar locals and parameters
	// leave their frame slots for mutable virtual registers, their loads and
	// stores become register moves (mostly folded away again), and
	// control-flow joins write the variable's canonical register from every
	// arm. Off, the lowering is the exact spill-everything baseline.
	PromoteRegisters bool
}

// Lower converts a checked file into an IR program with the spill-everything
// baseline lowering (no promotion).
func Lower(f *ast.File) (*ir.Program, error) {
	return LowerWith(f, Options{})
}

// LowerWith converts a checked file into an IR program per opts.
func LowerWith(f *ast.File, opts Options) (*ir.Program, error) {
	buf := insPool.Get().(*[]ir.Instr)
	g := &gen{
		unit:    f,
		prog:    &ir.Program{Structs: f.Structs},
		strIdx:  map[string]int{},
		funcIdx: map[string]int{},
		opts:    opts,
		ins:     (*buf)[:0],
	}
	p, err := g.run()
	// The instructions left in the buffer hold the program's types and
	// argument lists: clear its whole capacity, so that a pooled buffer
	// keeps no program alive.
	clear(g.ins[:cap(g.ins)])
	*buf = g.ins[:0]
	insPool.Put(buf)
	return p, err
}

// insPool holds instruction buffers (gen.ins) between LowerWith calls, so a
// buffer is grown once rather than on every lowering.
var insPool = sync.Pool{New: func() any { return new([]ir.Instr) }}

type gen struct {
	unit    *ast.File
	prog    *ir.Program
	strIdx  map[string]int
	funcIdx map[string]int
	opts    Options

	// Per-function state.
	fn   *ir.Func
	decl *ast.FuncDecl
	// blk is the block being generated. The function's instructions
	// collect in ins, a buffer reused across functions and (through
	// insPool) programs; blk's own start at ins[start:]. Each block left
	// is a cap-limited window of the buffer (or of an array the buffer
	// outgrew) until seal copies the function out after promotion.
	blk      *ir.Block
	ins      []ir.Instr
	start    int
	nParams  int
	localOff int // frame index of first sema-assigned local
	breaks   []int
	conts    []int
}

func (g *gen) run() (*ir.Program, error) {
	// Globals first so their indices match sema's GlobalIndex.
	for _, gd := range g.unit.Globals {
		gl := &ir.Global{Name: gd.Name, Type: gd.Type, Size: gd.Type.Size()}
		g.prog.Globals = append(g.prog.Globals, gl)
	}
	for i, fd := range g.unit.Funcs {
		g.funcIdx[fd.Name] = i
	}
	// Global initializers may reference functions and other globals.
	for i, gd := range g.unit.Globals {
		if gd.Init != nil {
			items, err := g.globalInit(gd.Type, gd.Init, 0)
			if err != nil {
				return nil, err
			}
			g.prog.Globals[i].Init = items
		}
	}
	for _, fd := range g.unit.Funcs {
		fn, err := g.lowerFunc(fd)
		if err != nil {
			return nil, err
		}
		if g.opts.PromoteRegisters {
			promoteFunc(fn)
		}
		g.seal(fn)
		g.prog.Funcs = append(g.prog.Funcs, fn)
	}
	if err := g.prog.Verify(); err != nil {
		return nil, fmt.Errorf("irgen: verification failed: %w", err)
	}
	return g.prog, nil
}

// intern adds a string literal to the program's string table.
func (g *gen) intern(s string) int {
	if i, ok := g.strIdx[s]; ok {
		return i
	}
	i := len(g.prog.Strings)
	g.prog.Strings = append(g.prog.Strings, s)
	g.strIdx[s] = i
	return i
}

// globalInit flattens a global initializer expression into init items at the
// given base offset.
func (g *gen) globalInit(t *ctypes.Type, e ast.Expr, off int64) ([]ir.InitItem, error) {
	switch x := e.(type) {
	case *ast.InitList:
		var items []ir.InitItem
		switch t.Kind {
		case ctypes.KindArray:
			for i, el := range x.Elems {
				sub, err := g.globalInit(t.Elem, el, off+int64(i)*t.Elem.Size())
				if err != nil {
					return nil, err
				}
				items = append(items, sub...)
			}
		case ctypes.KindStruct:
			for i, el := range x.Elems {
				f := t.Struct.Fields[i]
				sub, err := g.globalInit(f.Type, el, off+f.Offset)
				if err != nil {
					return nil, err
				}
				items = append(items, sub...)
			}
		default:
			return nil, fmt.Errorf("irgen: brace init of scalar at offset %d", off)
		}
		return items, nil
	case *ast.StrLit:
		if t.Kind == ctypes.KindArray && t.Elem.Kind == ctypes.KindChar {
			var items []ir.InitItem
			for i := 0; i < len(x.Val); i++ {
				items = append(items, ir.InitItem{
					Offset: off + int64(i), Size: 1, Val: int64(x.Val[i]),
				})
			}
			// Terminating NUL is implicit (globals are zeroed).
			return items, nil
		}
		return []ir.InitItem{{
			Offset: off, Size: 8, Kind: ir.InitStringAddr, Index: g.intern(x.Val),
		}}, nil
	}
	// Scalar initializer.
	size := t.Size()
	if size != 1 && size != 8 {
		return nil, fmt.Errorf("irgen: global scalar of size %d", size)
	}
	if v, ok := ast.IntConst(e); ok {
		return []ir.InitItem{{Offset: off, Size: size, Val: v}}, nil
	}
	if it, ok := g.addrInit(e); ok {
		it.Offset = off
		it.Size = 8
		return []ir.InitItem{it}, nil
	}
	return nil, fmt.Errorf("irgen: unsupported global initializer for offset %d", off)
}

// addrInit recognizes address-constant initializers: function names, &global,
// global arrays (decayed), and casts thereof.
func (g *gen) addrInit(e ast.Expr) (ir.InitItem, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Kind {
		case ast.RefFunc:
			if x.Fn.Builtin {
				return ir.InitItem{}, false
			}
			return ir.InitItem{Kind: ir.InitFuncAddr, Index: x.Fn.Index}, true
		case ast.RefGlobal:
			if x.Decl.Type.Kind == ctypes.KindArray {
				return ir.InitItem{Kind: ir.InitGlobalAddr, Index: x.Decl.GlobalIndex}, true
			}
		}
	case *ast.Unary:
		if x.Op == ast.UAddr {
			if id, ok := x.X.(*ast.Ident); ok {
				switch id.Kind {
				case ast.RefGlobal:
					return ir.InitItem{Kind: ir.InitGlobalAddr, Index: id.Decl.GlobalIndex}, true
				case ast.RefFunc:
					if !id.Fn.Builtin {
						return ir.InitItem{Kind: ir.InitFuncAddr, Index: id.Fn.Index}, true
					}
				}
			}
		}
	case *ast.Cast:
		return g.addrInit(x.X)
	}
	return ir.InitItem{}, false
}

// ---- Function lowering ----

func (g *gen) lowerFunc(fd *ast.FuncDecl) (*ir.Func, error) {
	fn := &ir.Func{
		Name:         fd.Name,
		Ret:          fd.Ret,
		Variadic:     fd.Variadic,
		AddressTaken: fd.AddressTaken,
	}
	for _, p := range fd.Params {
		fn.Params = append(fn.Params, ir.Param{Name: p.Name, Type: p.Type})
	}
	g.fn = fn
	g.decl = fd
	g.nParams = len(fd.Params)
	fn.NumRegs = g.nParams

	if fd.Body == nil {
		fn.External = true
		g.enter(fn.NewBlock("entry"))
		ret := ir.Instr{Op: ir.OpRet, Dst: -1}
		if !fd.Ret.IsVoid() {
			ret.A = ir.Const(0)
		}
		g.emit(ret)
		g.enter(nil)
		g.fn = nil
		g.decl = nil
		return fn, nil
	}

	// Frame: one spill slot per parameter, then sema-ordered locals.
	for _, p := range fd.Params {
		fn.Frame = append(fn.Frame, &ir.FrameObj{
			Name: p.Name, Type: p.Type, Size: p.Type.Size(), Align: p.Type.Align(),
		})
	}
	g.localOff = g.nParams
	locals := collectLocals(fd.Body)
	for _, d := range locals {
		fn.Frame = append(fn.Frame, &ir.FrameObj{
			Name: d.Name, Type: d.Type, Size: d.Type.Size(), Align: d.Type.Align(),
		})
	}

	g.enter(fn.NewBlock("entry"))
	// Spill parameters into their frame slots.
	for i, p := range fd.Params {
		g.emit(ir.Instr{
			Op: ir.OpStore, Dst: -1,
			A: ir.FrameAddr(i, 0), B: ir.Reg(i),
			Size: accessSize(p.Type), Ty: p.Type,
		})
	}
	if fd.Body != nil {
		g.stmt(fd.Body)
	}
	// Terminate every dangling block with an implicit return (the current
	// block on fall-off-the-end paths, plus merge blocks that became
	// unreachable because all predecessors returned). The current block
	// takes it in the buffer; a block already left is a cap-limited window,
	// so Emit moves it out of the buffer rather than overwrite the next.
	ret := ir.Instr{Op: ir.OpRet, Dst: -1}
	if !fd.Ret.IsVoid() {
		ret.A = ir.Const(0)
	}
	if !g.terminated() {
		g.emit(ret)
	}
	g.enter(nil)
	for _, blk := range fn.Blocks {
		if n := len(blk.Ins); n == 0 || !blk.Ins[n-1].IsTerm() {
			blk.Emit(ret)
		}
	}
	fn.Layout()
	g.fn = nil
	g.decl = nil
	return fn, nil
}

// collectLocals walks the body gathering declarations in sema's FrameIndex
// order.
func collectLocals(s ast.Stmt) []*ast.VarDecl {
	var out []*ast.VarDecl
	var walk func(ast.Stmt)
	walk = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.Block:
			for _, s2 := range st.Stmts {
				walk(s2)
			}
		case *ast.DeclStmt:
			out = append(out, st.Decls...)
		case *ast.If:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *ast.While:
			walk(st.Body)
		case *ast.DoWhile:
			walk(st.Body)
		case *ast.For:
			if st.Init != nil {
				walk(st.Init)
			}
			walk(st.Body)
		case *ast.Switch:
			for _, c := range st.Cases {
				for _, s2 := range c.Stmts {
					walk(s2)
				}
			}
		}
	}
	walk(s)
	for i, d := range out {
		if d.FrameIndex != i {
			// sema assigns indices in declaration order; trust but verify.
			panic(fmt.Sprintf("irgen: local %s has frame index %d, expected %d",
				d.Name, d.FrameIndex, i))
		}
	}
	return out
}

// frameIndex maps a local declaration to its IR frame slot.
func (g *gen) frameIndex(d *ast.VarDecl) int { return g.localOff + d.FrameIndex }

// newReg allocates a fresh virtual register.
func (g *gen) newReg() int {
	r := g.fn.NumRegs
	g.fn.NumRegs++
	return r
}

// newTemp allocates a compiler temporary frame slot (for short-circuit and
// conditional expression results).
func (g *gen) newTemp() int {
	i := len(g.fn.Frame)
	g.fn.Frame = append(g.fn.Frame, &ir.FrameObj{
		Name: fmt.Sprintf("$t%d", i), Type: ctypes.Int, Size: 8, Align: 8,
	})
	return i
}

// enter makes b the block being generated (nil: none). The block being
// left becomes the window of the buffer its instructions were emitted
// into, capped at its length so that no append writes into the block after
// it. Every block is entered once.
func (g *gen) enter(b *ir.Block) {
	if g.blk != nil {
		n := len(g.ins)
		g.blk.Ins = g.ins[g.start:n:n]
		g.start = n
	}
	g.blk = b
}

// seal moves fn's blocks out of the buffer into one allocation of their
// exact total size, in block order, each block a cap-limited window of it,
// and empties the buffer for the next function. It runs after promotion,
// whose filters shrink blocks in place, so the program keeps no slack.
func (g *gen) seal(fn *ir.Func) {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Ins)
	}
	all := make([]ir.Instr, n)
	off := 0
	for _, b := range fn.Blocks {
		end := off + copy(all[off:], b.Ins)
		b.Ins = all[off:end:end]
		off = end
	}
	g.ins, g.start = g.ins[:0], 0
}

func (g *gen) emit(in ir.Instr) {
	g.ins = append(g.ins, in)
}

func (g *gen) terminated() bool {
	n := len(g.ins)
	return n > g.start && g.ins[n-1].IsTerm()
}

func (g *gen) br(target int) {
	if !g.terminated() {
		g.emit(ir.Instr{Op: ir.OpBr, Dst: -1, Blk0: target})
	}
}

func (g *gen) condbr(cond ir.Value, then, els int) {
	g.emit(ir.Instr{Op: ir.OpCondBr, Dst: -1, A: cond, Blk0: then, Blk1: els})
}

// accessSize returns the load/store width for a type.
func accessSize(t *ctypes.Type) uint8 {
	if t.Kind == ctypes.KindChar {
		return 1
	}
	return 8
}

// builtinKind maps a resolved builtin FuncDecl to its kind.
func builtinKind(fd *ast.FuncDecl) builtins.Kind {
	return builtins.KindOf(fd.Name)
}
