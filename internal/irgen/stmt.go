package irgen

import (
	"repro/internal/ctypes"
	"repro/internal/ir"
	"repro/internal/minic/ast"
)

// stmt lowers one statement into the current block.
func (g *gen) stmt(s ast.Stmt) {
	if g.terminated() {
		// Unreachable code after return/break: skip (C allows it; lowering
		// it would create blocks with no predecessors for no benefit).
		return
	}
	switch st := s.(type) {
	case *ast.Block:
		for _, s2 := range st.Stmts {
			g.stmt(s2)
		}
	case *ast.DeclStmt:
		for _, d := range st.Decls {
			g.localInit(d)
		}
	case *ast.ExprStmt:
		g.expr(st.X)
	case *ast.If:
		g.ifStmt(st)
	case *ast.While:
		g.whileStmt(st)
	case *ast.DoWhile:
		g.doWhileStmt(st)
	case *ast.For:
		g.forStmt(st)
	case *ast.Return:
		in := ir.Instr{Op: ir.OpRet, Dst: -1}
		if st.X != nil {
			in.A = g.expr(st.X)
		}
		g.emit(in)
	case *ast.Break:
		g.br(g.breaks[len(g.breaks)-1])
	case *ast.Continue:
		g.br(g.conts[len(g.conts)-1])
	case *ast.Switch:
		g.switchStmt(st)
	}
}

// localInit emits initialization stores for a local declaration.
func (g *gen) localInit(d *ast.VarDecl) {
	fi := g.frameIndex(d)
	if d.Init == nil {
		return
	}
	g.initStores(fi, 0, d.Type, d.Init)
}

// initStores writes an initializer (scalar, string, or brace list) into
// frame object fi at byte offset off.
func (g *gen) initStores(fi int, off int64, t *ctypes.Type, e ast.Expr) {
	switch x := e.(type) {
	case *ast.InitList:
		switch t.Kind {
		case ctypes.KindArray:
			for i, el := range x.Elems {
				g.initStores(fi, off+int64(i)*t.Elem.Size(), t.Elem, el)
			}
		case ctypes.KindStruct:
			for i, el := range x.Elems {
				f := t.Struct.Fields[i]
				g.initStores(fi, off+f.Offset, f.Type, el)
			}
		}
		return
	case *ast.StrLit:
		if t.Kind == ctypes.KindArray && t.Elem.Kind == ctypes.KindChar {
			for i := 0; i <= len(x.Val); i++ { // include NUL
				var c int64
				if i < len(x.Val) {
					c = int64(x.Val[i])
				}
				g.emit(ir.Instr{
					Op: ir.OpStore, Dst: -1,
					A: ir.FrameAddr(fi, off+int64(i)), B: ir.Const(c),
					Size: 1, Ty: ctypes.Char,
				})
			}
			return
		}
	}
	v := g.expr(e)
	g.emit(ir.Instr{
		Op: ir.OpStore, Dst: -1,
		A: ir.FrameAddr(fi, off), B: v,
		Size: accessSize(t), Ty: t,
	})
}

func (g *gen) ifStmt(st *ast.If) {
	cond := g.expr(st.Cond)
	thenB := g.fn.NewBlock("then")
	endB := g.fn.NewBlock("endif")
	elseIdx := endB.Index
	var elseB *ir.Block
	if st.Else != nil {
		elseB = g.fn.NewBlock("else")
		elseIdx = elseB.Index
	}
	g.condbr(cond, thenB.Index, elseIdx)

	g.enter(thenB)
	g.stmt(st.Then)
	g.br(endB.Index)

	if elseB != nil {
		g.enter(elseB)
		g.stmt(st.Else)
		g.br(endB.Index)
	}
	g.enter(endB)
}

func (g *gen) whileStmt(st *ast.While) {
	condB := g.fn.NewBlock("while.cond")
	bodyB := g.fn.NewBlock("while.body")
	endB := g.fn.NewBlock("while.end")
	g.br(condB.Index)

	g.enter(condB)
	cond := g.expr(st.Cond)
	g.condbr(cond, bodyB.Index, endB.Index)

	g.breaks = append(g.breaks, endB.Index)
	g.conts = append(g.conts, condB.Index)
	g.enter(bodyB)
	g.stmt(st.Body)
	g.br(condB.Index)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]

	g.enter(endB)
}

func (g *gen) doWhileStmt(st *ast.DoWhile) {
	bodyB := g.fn.NewBlock("do.body")
	condB := g.fn.NewBlock("do.cond")
	endB := g.fn.NewBlock("do.end")
	g.br(bodyB.Index)

	g.breaks = append(g.breaks, endB.Index)
	g.conts = append(g.conts, condB.Index)
	g.enter(bodyB)
	g.stmt(st.Body)
	g.br(condB.Index)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]

	g.enter(condB)
	cond := g.expr(st.Cond)
	g.condbr(cond, bodyB.Index, endB.Index)

	g.enter(endB)
}

func (g *gen) forStmt(st *ast.For) {
	if st.Init != nil {
		g.stmt(st.Init)
	}
	condB := g.fn.NewBlock("for.cond")
	bodyB := g.fn.NewBlock("for.body")
	postB := g.fn.NewBlock("for.post")
	endB := g.fn.NewBlock("for.end")
	g.br(condB.Index)

	g.enter(condB)
	if st.Cond != nil {
		cond := g.expr(st.Cond)
		g.condbr(cond, bodyB.Index, endB.Index)
	} else {
		g.br(bodyB.Index)
	}

	g.breaks = append(g.breaks, endB.Index)
	g.conts = append(g.conts, postB.Index)
	g.enter(bodyB)
	g.stmt(st.Body)
	g.br(postB.Index)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]

	g.enter(postB)
	if st.Post != nil {
		g.expr(st.Post)
	}
	g.br(condB.Index)

	g.enter(endB)
}

func (g *gen) switchStmt(st *ast.Switch) {
	v := g.expr(st.X)
	endB := g.fn.NewBlock("sw.end")

	// One body block per case, in source order (fallthrough runs into the
	// next body).
	bodies := make([]*ir.Block, len(st.Cases))
	defaultIdx := endB.Index
	for i, c := range st.Cases {
		bodies[i] = g.fn.NewBlock("sw.case")
		if c.IsDefault {
			defaultIdx = bodies[i].Index
		}
	}

	// Dispatch chain.
	for i, c := range st.Cases {
		for _, ve := range c.Vals {
			val := ve.(*ast.IntLit).Val
			cmp := g.newReg()
			g.emit(ir.Instr{Op: ir.OpBin, ALU: ir.AEq, Dst: cmp, A: v, B: ir.Const(val)})
			nextT := g.fn.NewBlock("sw.test")
			g.condbr(ir.Reg(cmp), bodies[i].Index, nextT.Index)
			g.enter(nextT)
		}
	}
	g.br(defaultIdx)

	// Bodies with fallthrough.
	g.breaks = append(g.breaks, endB.Index)
	for i, c := range st.Cases {
		g.enter(bodies[i])
		for _, s2 := range c.Stmts {
			g.stmt(s2)
		}
		if i+1 < len(bodies) {
			g.br(bodies[i+1].Index)
		} else {
			g.br(endB.Index)
		}
	}
	g.breaks = g.breaks[:len(g.breaks)-1]

	g.enter(endB)
}
