package parser

import (
	"repro/internal/ctypes"
	"repro/internal/minic/ast"
	"repro/internal/minic/token"
)

// block parses "{ stmt* }".
func (p *parser) block() *ast.Block {
	pos := p.expect(token.LBrace).Pos
	b := &ast.Block{Pos: pos}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		b.Stmts = append(b.Stmts, p.stmt())
	}
	p.expect(token.RBrace)
	return b
}

// stmt parses a single statement, one tree level below the enclosing
// one.
func (p *parser) stmt() ast.Stmt {
	p.enter(p.cur().Pos)
	s := p.stmtBody()
	p.leave()
	return s
}

func (p *parser) stmtBody() ast.Stmt {
	switch p.kind() {
	case token.LBrace:
		return p.block()
	case token.KwIf:
		return p.ifStmt()
	case token.KwWhile:
		return p.whileStmt()
	case token.KwDo:
		return p.doWhileStmt()
	case token.KwFor:
		return p.forStmt()
	case token.KwReturn:
		pos := p.next().Pos
		r := &ast.Return{Pos: pos}
		if !p.at(token.Semi) {
			r.X = p.expr()
		}
		p.expect(token.Semi)
		return r
	case token.KwBreak:
		pos := p.next().Pos
		p.expect(token.Semi)
		return &ast.Break{Pos: pos}
	case token.KwContinue:
		pos := p.next().Pos
		p.expect(token.Semi)
		return &ast.Continue{Pos: pos}
	case token.KwSwitch:
		return p.switchStmt()
	case token.KwGoto:
		p.errf(p.cur().Pos, "goto is not supported in mini-C")
	case token.Semi:
		p.next()
		return &ast.Block{Pos: p.cur().Pos} // empty statement
	}
	if p.startsType() {
		return p.declStmt()
	}
	x := p.expr()
	p.expect(token.Semi)
	return &ast.ExprStmt{X: x}
}

// declStmt parses one or more local variable declarations sharing a base
// type, returning a Block when more than one variable is declared.
func (p *parser) declStmt() ast.Stmt {
	base := p.typeBase()
	ds := &ast.DeclStmt{}
	for {
		pos := p.cur().Pos
		name, ty := p.declarator(base)
		if name == "" {
			p.errf(pos, "expected variable name")
		}
		d := &ast.VarDecl{Pos: pos, Name: name, Type: ty, FrameIndex: -1}
		if p.accept(token.Assign) {
			d.Init = p.initializer()
		}
		ds.Decls = append(ds.Decls, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	return ds
}

// initializer parses an expression or a brace initializer list.
func (p *parser) initializer() ast.Expr {
	if p.at(token.LBrace) {
		pos := p.next().Pos
		lst := &ast.InitList{}
		lst.SetType(nil)
		lst.Pos = pos
		p.enter(pos)
		for !p.at(token.RBrace) {
			lst.Elems = append(lst.Elems, p.initializer())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.leave()
		p.expect(token.RBrace)
		return lst
	}
	return p.assignExpr()
}

func (p *parser) ifStmt() ast.Stmt {
	pos := p.expect(token.KwIf).Pos
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	then := p.stmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.stmt()
	}
	return &ast.If{Pos: pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) whileStmt() ast.Stmt {
	pos := p.expect(token.KwWhile).Pos
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	return &ast.While{Pos: pos, Cond: cond, Body: p.stmt()}
}

func (p *parser) doWhileStmt() ast.Stmt {
	pos := p.expect(token.KwDo).Pos
	body := p.stmt()
	p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	p.expect(token.Semi)
	return &ast.DoWhile{Pos: pos, Body: body, Cond: cond}
}

func (p *parser) forStmt() ast.Stmt {
	pos := p.expect(token.KwFor).Pos
	p.expect(token.LParen)
	f := &ast.For{Pos: pos}
	if !p.at(token.Semi) {
		if p.startsType() {
			f.Init = p.declStmt() // consumes the ';'
		} else {
			f.Init = &ast.ExprStmt{X: p.expr()}
			p.expect(token.Semi)
		}
	} else {
		p.next()
	}
	if !p.at(token.Semi) {
		f.Cond = p.expr()
	}
	p.expect(token.Semi)
	if !p.at(token.RParen) {
		f.Post = p.expr()
	}
	p.expect(token.RParen)
	f.Body = p.stmt()
	return f
}

func (p *parser) switchStmt() ast.Stmt {
	pos := p.expect(token.KwSwitch).Pos
	p.expect(token.LParen)
	x := p.expr()
	p.expect(token.RParen)
	p.expect(token.LBrace)
	sw := &ast.Switch{Pos: pos, X: x}
	var cur *ast.Case
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		switch p.kind() {
		case token.KwCase:
			cpos := p.next().Pos
			val := &ast.IntLit{Val: p.constExpr()}
			val.SetType(ctypes.Int)
			p.expect(token.Colon)
			if cur != nil && len(cur.Stmts) == 0 && !cur.IsDefault {
				cur.Vals = append(cur.Vals, val) // case 1: case 2: stacking
			} else {
				cur = &ast.Case{Pos: cpos, Vals: []ast.Expr{val}}
				sw.Cases = append(sw.Cases, cur)
			}
		case token.KwDefault:
			cpos := p.next().Pos
			p.expect(token.Colon)
			cur = &ast.Case{Pos: cpos, IsDefault: true}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				p.errf(p.cur().Pos, "statement before first case label")
			}
			cur.Stmts = append(cur.Stmts, p.stmt())
		}
	}
	p.expect(token.RBrace)
	return sw
}
