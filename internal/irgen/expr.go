package irgen

import (
	"fmt"

	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/minic/ast"
)

// expr lowers an expression and returns the value operand holding its
// result. Array- and function-typed expressions evaluate to their address
// (C decay).
func (g *gen) expr(e ast.Expr) ir.Value {
	switch x := e.(type) {
	case *ast.IntLit:
		return ir.Const(x.Val)
	case *ast.StrLit:
		return ir.StringAddr(g.intern(x.Val), 0)
	case *ast.Ident:
		return g.identExpr(x)
	case *ast.Unary:
		return g.unaryExpr(x)
	case *ast.Postfix:
		return g.incDec(x.X, x.Inc, false)
	case *ast.Binary:
		return g.binaryExpr(x)
	case *ast.Assign:
		return g.assignExpr(x)
	case *ast.Call:
		return g.callExpr(x)
	case *ast.Index:
		addr := g.indexAddr(x)
		elem := x.X.Type().Elem
		return g.loadOrDecay(addr, elem)
	case *ast.Member:
		addr := g.memberAddr(x)
		return g.loadOrDecay(addr, x.Field.Type)
	case *ast.Cast:
		return g.castExpr(x)
	case *ast.SizeofType:
		return ir.Const(x.T.Size())
	case *ast.Cond:
		return g.condExpr(x)
	}
	panic(fmt.Sprintf("irgen: unexpected expression %T", e))
}

// loadOrDecay loads a scalar from addr, or returns addr itself for
// array-typed results (decay). Struct-typed rvalues cannot occur (sema).
func (g *gen) loadOrDecay(addr ir.Value, t *ctypes.Type) ir.Value {
	if t.Kind == ctypes.KindArray {
		return addr
	}
	if t.Kind == ctypes.KindStruct {
		panic("irgen: struct rvalue")
	}
	dst := g.newReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: addr, Size: accessSize(t), Ty: t})
	return ir.Reg(dst)
}

// addr lowers an lvalue expression to its address operand.
func (g *gen) addr(e ast.Expr) ir.Value {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Kind {
		case ast.RefLocal:
			return ir.FrameAddr(g.frameIndex(x.Decl), 0)
		case ast.RefParam:
			return ir.FrameAddr(x.Prm, 0)
		case ast.RefGlobal:
			return ir.GlobalAddr(x.Decl.GlobalIndex, 0)
		case ast.RefFunc:
			return ir.FuncAddr(x.Fn.Index)
		}
	case *ast.Unary:
		if x.Op == ast.UDeref {
			return g.expr(x.X)
		}
	case *ast.Index:
		return g.indexAddr(x)
	case *ast.Member:
		return g.memberAddr(x)
	}
	panic(fmt.Sprintf("irgen: not an lvalue: %T", e))
}

// identExpr evaluates an identifier as an rvalue.
func (g *gen) identExpr(x *ast.Ident) ir.Value {
	if x.Kind == ast.RefFunc {
		if x.Fn.Builtin {
			panic(fmt.Sprintf("irgen: address of builtin %s", x.Fn.Name))
		}
		return ir.FuncAddr(x.Fn.Index)
	}
	var t *ctypes.Type
	switch x.Kind {
	case ast.RefLocal, ast.RefGlobal:
		t = x.Decl.Type
	case ast.RefParam:
		t = g.decl.Params[x.Prm].Type
	}
	return g.loadOrDecay(g.addr(x), t)
}

// indexAddr computes &x[i], folding constant indices on direct bases when
// provably in bounds (those accesses stay safe-stack eligible, §3.2.4).
func (g *gen) indexAddr(x *ast.Index) ir.Value {
	base := g.expr(x.X)
	elem := x.X.Type().Elem
	size := elem.Size()
	idx := g.expr(x.Idx)
	if idx.Kind == ir.ValConst && base.IsAddr() {
		off := base.Imm + idx.Imm*size
		if g.offsetInBounds(base, off, size) {
			base.Imm = off
			return base
		}
	}
	dst := g.newReg()
	g.emit(ir.Instr{
		Op: ir.OpGEP, Dst: dst, A: base, B: idx, Scale: size,
		Ty: ctypes.PointerTo(elem),
	})
	return ir.Reg(dst)
}

// memberAddr computes &x.f / &x->f.
func (g *gen) memberAddr(x *ast.Member) ir.Value {
	var base ir.Value
	if x.Arrow {
		base = g.expr(x.X)
	} else {
		base = g.addr(x.X)
	}
	off := x.Field.Offset
	if base.IsAddr() {
		no := base.Imm + off
		if g.offsetInBounds(base, no, x.Field.Type.Size()) {
			base.Imm = no
			return base
		}
	}
	dst := g.newReg()
	g.emit(ir.Instr{
		Op: ir.OpGEP, Dst: dst, A: base, B: ir.Const(0), Scale: 0, Off: off,
		Ty: ctypes.PointerTo(x.Field.Type),
	})
	return ir.Reg(dst)
}

// offsetInBounds reports whether [off, off+size) lies within the referenced
// object of a direct address value.
func (g *gen) offsetInBounds(v ir.Value, off, size int64) bool {
	if off < 0 {
		return false
	}
	switch v.Kind {
	case ir.ValFrame:
		return off+size <= g.fn.Frame[v.Index].Size
	case ir.ValGlobal:
		return off+size <= g.prog.Globals[v.Index].Size
	case ir.ValString:
		return off+size <= int64(len(g.prog.Strings[v.Index])+1)
	}
	return false
}

func (g *gen) unaryExpr(x *ast.Unary) ir.Value {
	switch x.Op {
	case ast.UAddr:
		if id, ok := x.X.(*ast.Ident); ok && id.Kind == ast.RefFunc {
			return ir.FuncAddr(id.Fn.Index)
		}
		return g.addr(x.X)
	case ast.UDeref:
		// Deref of a function pointer is the designator; it decays back.
		if x.Type().IsFuncPtr() && x.X.Type().IsFuncPtr() {
			return g.expr(x.X)
		}
		addr := g.expr(x.X)
		return g.loadOrDecay(addr, x.X.Type().Elem)
	case ast.UNeg:
		v := g.expr(x.X)
		if v.Kind == ir.ValConst {
			return ir.Const(-v.Imm)
		}
		dst := g.newReg()
		g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.ASub, Dst: dst, A: ir.Const(0), B: v})
		return ir.Reg(dst)
	case ast.UBitNot:
		v := g.expr(x.X)
		if v.Kind == ir.ValConst {
			return ir.Const(^v.Imm)
		}
		dst := g.newReg()
		g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.AXor, Dst: dst, A: v, B: ir.Const(-1)})
		return ir.Reg(dst)
	case ast.UNot:
		v := g.expr(x.X)
		dst := g.newReg()
		g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.AEq, Dst: dst, A: v, B: ir.Const(0)})
		return ir.Reg(dst)
	case ast.UPreInc:
		return g.incDec(x.X, true, true)
	case ast.UPreDec:
		return g.incDec(x.X, false, true)
	}
	panic("irgen: bad unary op")
}

// incDec lowers ++/-- (pre when pre is true, otherwise post).
func (g *gen) incDec(lv ast.Expr, inc, pre bool) ir.Value {
	addr := g.addr(lv)
	t := lv.Type() // decayed: int, char or pointer
	old := g.newReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: old, A: addr, Size: accessSize(t), Ty: t})
	nw := g.newReg()
	if t.IsPtr() {
		size := t.Elem.Size()
		if !inc {
			size = -size
		}
		g.emit(ir.Instr{Op: ir.OpGEP, Dst: nw, A: ir.Reg(old), B: ir.Const(1),
			Scale: size, Ty: t})
	} else {
		alu := ir.AAdd
		if !inc {
			alu = ir.ASub
		}
		g.emit(ir.Instr{Op: ir.OpBin, ALU: alu, Dst: nw, A: ir.Reg(old), B: ir.Const(1)})
	}
	g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: addr, B: ir.Reg(nw),
		Size: accessSize(t), Ty: t})
	if pre {
		return ir.Reg(nw)
	}
	return ir.Reg(old)
}

var aluOf = map[ast.BinOp]ir.ALU{
	ast.Add: ir.AAdd, ast.Sub: ir.ASub, ast.Mul: ir.AMul, ast.Div: ir.ADiv,
	ast.Rem: ir.ARem, ast.And: ir.AAnd, ast.Or: ir.AOr, ast.Xor: ir.AXor,
	ast.Shl: ir.AShl, ast.Shr: ir.AShr, ast.Lt: ir.ALt, ast.Gt: ir.AGt,
	ast.Le: ir.ALe, ast.Ge: ir.AGe, ast.Eq: ir.AEq, ast.Ne: ir.ANe,
}

func (g *gen) binaryExpr(x *ast.Binary) ir.Value {
	switch x.Op {
	case ast.LAnd, ast.LOr:
		return g.shortCircuit(x)
	}
	lt, rt := x.X.Type(), x.Y.Type()

	// Pointer arithmetic lowers to GEP so based-on metadata propagates
	// (§3.1 case iv).
	if x.Op == ast.Add || x.Op == ast.Sub {
		switch {
		case lt.IsPtr() && rt.IsInteger():
			base := g.expr(x.X)
			idx := g.expr(x.Y)
			scale := lt.Elem.Size()
			if x.Op == ast.Sub {
				scale = -scale
			}
			dst := g.newReg()
			g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, A: base, B: idx, Scale: scale, Ty: lt})
			return ir.Reg(dst)
		case lt.IsInteger() && rt.IsPtr() && x.Op == ast.Add:
			idx := g.expr(x.X)
			base := g.expr(x.Y)
			dst := g.newReg()
			g.emit(ir.Instr{Op: ir.OpGEP, Dst: dst, A: base, B: idx,
				Scale: rt.Elem.Size(), Ty: rt})
			return ir.Reg(dst)
		case lt.IsPtr() && rt.IsPtr() && x.Op == ast.Sub:
			a := g.expr(x.X)
			b := g.expr(x.Y)
			diff := g.newReg()
			g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.ASub, Dst: diff, A: a, B: b})
			size := lt.Elem.Size()
			if size == 1 {
				return ir.Reg(diff)
			}
			dst := g.newReg()
			g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.ADiv, Dst: dst,
				A: ir.Reg(diff), B: ir.Const(size)})
			return ir.Reg(dst)
		}
	}

	a := g.expr(x.X)
	b := g.expr(x.Y)
	if a.Kind == ir.ValConst && b.Kind == ir.ValConst {
		if v, ok := aluOf[x.Op].Eval(uint64(a.Imm), uint64(b.Imm)); ok {
			return ir.Const(int64(v))
		}
	}
	dst := g.newReg()
	g.emit(ir.Instr{Op: ir.OpBin, ALU: aluOf[x.Op], Dst: dst, A: a, B: b})
	return ir.Reg(dst)
}

// shortCircuit lowers && and || through a compiler temporary.
func (g *gen) shortCircuit(x *ast.Binary) ir.Value {
	tmp := g.newTemp()
	rightB := g.fn.NewBlock("sc.right")
	shortB := g.fn.NewBlock("sc.short")
	endB := g.fn.NewBlock("sc.end")

	a := g.expr(x.X)
	if x.Op == ast.LAnd {
		g.condbr(a, rightB.Index, shortB.Index)
	} else {
		g.condbr(a, shortB.Index, rightB.Index)
	}

	// Short-circuit result: 0 for &&, 1 for ||.
	g.enter(shortB)
	sv := int64(0)
	if x.Op == ast.LOr {
		sv = 1
	}
	g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: ir.FrameAddr(tmp, 0),
		B: ir.Const(sv), Size: 8, Ty: ctypes.Int})
	g.br(endB.Index)

	g.enter(rightB)
	b := g.expr(x.Y)
	nz := g.newReg()
	g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.ANe, Dst: nz, A: b, B: ir.Const(0)})
	g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: ir.FrameAddr(tmp, 0),
		B: ir.Reg(nz), Size: 8, Ty: ctypes.Int})
	g.br(endB.Index)

	g.enter(endB)
	dst := g.newReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: ir.FrameAddr(tmp, 0),
		Size: 8, Ty: ctypes.Int})
	return ir.Reg(dst)
}

// condExpr lowers c ? t : f through a compiler temporary.
func (g *gen) condExpr(x *ast.Cond) ir.Value {
	tmp := g.newTemp()
	thenB := g.fn.NewBlock("cond.then")
	elseB := g.fn.NewBlock("cond.else")
	endB := g.fn.NewBlock("cond.end")

	c := g.expr(x.C)
	g.condbr(c, thenB.Index, elseB.Index)

	ty := x.Type()
	g.enter(thenB)
	tv := g.expr(x.T)
	g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: ir.FrameAddr(tmp, 0), B: tv,
		Size: 8, Ty: ty})
	g.br(endB.Index)

	g.enter(elseB)
	fv := g.expr(x.F)
	g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: ir.FrameAddr(tmp, 0), B: fv,
		Size: 8, Ty: ty})
	g.br(endB.Index)

	g.enter(endB)
	dst := g.newReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: ir.FrameAddr(tmp, 0),
		Size: 8, Ty: ty})
	return ir.Reg(dst)
}

func (g *gen) assignExpr(x *ast.Assign) ir.Value {
	addr := g.addr(x.LHS)
	t := x.LHS.Type()
	if x.Simple {
		v := g.expr(x.RHS)
		g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: addr, B: v,
			Size: accessSize(t), Ty: t})
		return v
	}
	// Compound: load, combine, store.
	old := g.newReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: old, A: addr, Size: accessSize(t), Ty: t})
	rhs := g.expr(x.RHS)
	nw := g.newReg()
	if t.IsPtr() {
		scale := t.Elem.Size()
		if x.Op == ast.Sub {
			scale = -scale
		}
		g.emit(ir.Instr{Op: ir.OpGEP, Dst: nw, A: ir.Reg(old), B: rhs,
			Scale: scale, Ty: t})
	} else {
		g.emit(ir.Instr{Op: ir.OpBin, ALU: aluOf[x.Op], Dst: nw,
			A: ir.Reg(old), B: rhs})
	}
	g.emit(ir.Instr{Op: ir.OpStore, Dst: -1, A: addr, B: ir.Reg(nw),
		Size: accessSize(t), Ty: t})
	return ir.Reg(nw)
}

func (g *gen) callExpr(x *ast.Call) ir.Value {
	args := make([]ir.Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = g.expr(a)
	}
	dst := -1
	if !x.Type().IsVoid() {
		dst = g.newReg()
	}

	if id, ok := x.Fun.(*ast.Ident); ok && id.Kind == ast.RefFunc {
		in := ir.Instr{Op: ir.OpCall, Dst: dst, Args: args, Ty: x.Type()}
		if id.Fn.Builtin {
			in.Callee = -1
			in.Intr = builtinKind(id.Fn)
		} else {
			in.Callee = id.Fn.Index
		}
		g.emit(in)
	} else {
		// Indirect call through a function pointer value.
		fp := g.expr(x.Fun)
		g.emit(ir.Instr{Op: ir.OpICall, Dst: dst, A: fp, Args: args,
			Ty: x.Fun.Type()})
	}
	if dst < 0 {
		return ir.Value{Kind: ir.ValNone}
	}
	return ir.Reg(dst)
}

func (g *gen) castExpr(x *ast.Cast) ir.Value {
	v := g.expr(x.X)
	from := x.X.Type()
	to := x.To
	if to.IsVoid() {
		return ir.Const(0)
	}
	// A constant int-to-int cast folds, truncating to char as the VM's
	// char cast does; other casts are emitted so the metadata rules of
	// Appendix A apply.
	if v.Kind == ir.ValConst && from.IsInteger() && to.IsInteger() {
		if to.Kind == ctypes.KindChar {
			v.Imm &= 0xff
		}
		return v
	}
	dst := g.newReg()
	g.emit(ir.Instr{Op: ir.OpCast, Dst: dst, A: v, FromTy: from, Ty: to})
	return ir.Reg(dst)
}
