package parser

import (
	"repro/internal/ctypes"
	"repro/internal/minic/ast"
	"repro/internal/minic/token"
)

// Every expression parser leaves the height of the expression it returns
// in p.h and opens a tree level (p.enter) around each operand it parses
// by recursion. Left-deep chains (binary operators, postfix suffixes) are
// built by loops, so their height is checked as it grows.

// expr parses a full expression (assignment level; mini-C has no comma
// operator).
func (p *parser) expr() ast.Expr { return p.assignExpr() }

// assignExpr parses assignment expressions (right associative).
func (p *parser) assignExpr() ast.Expr {
	lhs := p.condExpr()
	var op ast.BinOp
	simple := false
	switch p.kind() {
	case token.Assign:
		simple = true
	case token.PlusAssign:
		op = ast.Add
	case token.MinusAssign:
		op = ast.Sub
	case token.StarAssign:
		op = ast.Mul
	case token.SlashAssign:
		op = ast.Div
	case token.PercentAssign:
		op = ast.Rem
	case token.AmpAssign:
		op = ast.And
	case token.PipeAssign:
		op = ast.Or
	case token.CaretAssign:
		op = ast.Xor
	case token.ShlAssign:
		op = ast.Shl
	case token.ShrAssign:
		op = ast.Shr
	default:
		return lhs
	}
	lh := p.h
	pos := p.next().Pos
	p.enter(pos)
	rhs := p.assignExpr()
	p.leave()
	a := &ast.Assign{Simple: simple, Op: op, LHS: lhs, RHS: rhs}
	a.Pos = pos
	p.height(pos, max(lh, p.h)+1)
	return a
}

// condExpr parses c ? t : f.
func (p *parser) condExpr() ast.Expr {
	c := p.binExpr(0)
	if !p.at(token.Question) {
		return c
	}
	h := p.h
	pos := p.next().Pos
	p.enter(pos)
	t := p.assignExpr()
	h = max(h, p.h)
	p.expect(token.Colon)
	f := p.condExpr()
	p.leave()
	e := &ast.Cond{C: c, T: t, F: f}
	e.Pos = pos
	p.height(pos, max(h, p.h)+1)
	return e
}

// binLevel maps token kinds to (precedence, operator). Higher binds tighter.
type binLevel struct {
	prec int
	op   ast.BinOp
}

var binOps = map[token.Kind]binLevel{
	token.OrOr:    {1, ast.LOr},
	token.AndAnd:  {2, ast.LAnd},
	token.Pipe:    {3, ast.Or},
	token.Caret:   {4, ast.Xor},
	token.Amp:     {5, ast.And},
	token.EqEq:    {6, ast.Eq},
	token.NotEq:   {6, ast.Ne},
	token.Lt:      {7, ast.Lt},
	token.Gt:      {7, ast.Gt},
	token.Le:      {7, ast.Le},
	token.Ge:      {7, ast.Ge},
	token.Shl:     {8, ast.Shl},
	token.Shr:     {8, ast.Shr},
	token.Plus:    {9, ast.Add},
	token.Minus:   {9, ast.Sub},
	token.Star:    {10, ast.Mul},
	token.Slash:   {10, ast.Div},
	token.Percent: {10, ast.Rem},
}

// binExpr is a precedence-climbing binary expression parser.
func (p *parser) binExpr(minPrec int) ast.Expr {
	lhs := p.unaryExpr()
	h := p.h
	for {
		lv, ok := binOps[p.kind()]
		if !ok || lv.prec < minPrec {
			p.h = h
			return lhs
		}
		pos := p.next().Pos
		p.enter(pos)
		rhs := p.binExpr(lv.prec + 1)
		p.leave()
		b := &ast.Binary{Op: lv.op, X: lhs, Y: rhs}
		b.Pos = pos
		lhs = b
		h = max(h, p.h) + 1
		p.height(pos, h)
	}
}

// unaryExpr parses prefix operators, casts and sizeof.
func (p *parser) unaryExpr() ast.Expr {
	pos := p.cur().Pos
	// operand parses the operand of a prefix construct at pos and records
	// the construct's height.
	operand := func() ast.Expr {
		p.enter(pos)
		x := p.unaryExpr()
		p.leave()
		p.height(pos, p.h+1)
		return x
	}
	mk := func(op ast.UnaryOp) ast.Expr {
		p.next()
		u := &ast.Unary{Op: op, X: operand()}
		u.Pos = pos
		return u
	}
	switch p.kind() {
	case token.Minus:
		return mk(ast.UNeg)
	case token.Not:
		return mk(ast.UNot)
	case token.Tilde:
		return mk(ast.UBitNot)
	case token.Amp:
		return mk(ast.UAddr)
	case token.Star:
		return mk(ast.UDeref)
	case token.PlusPlus:
		return mk(ast.UPreInc)
	case token.MinusMinus:
		return mk(ast.UPreDec)
	case token.Plus:
		p.next()
		return operand()
	case token.KwSizeof:
		p.next()
		if p.at(token.LParen) && p.typeAfterLParen() {
			p.next()
			t := p.typeName()
			p.expect(token.RParen)
			s := &ast.SizeofType{T: t}
			s.Pos = pos
			s.SetType(ctypes.Int)
			p.height(pos, 1)
			return s
		}
		s := &ast.SizeofType{X: operand()}
		s.Pos = pos
		s.SetType(ctypes.Int)
		return s
	case token.LParen:
		if p.typeAfterLParen() {
			p.next()
			t := p.typeName()
			p.expect(token.RParen)
			c := &ast.Cast{To: t, X: operand()}
			c.Pos = pos
			return c
		}
	}
	return p.postfixExpr()
}

// typeAfterLParen reports whether "(" is followed by a type name (i.e. the
// construct is a cast or sizeof(type)).
func (p *parser) typeAfterLParen() bool {
	switch p.peekKind(1) {
	case token.KwInt, token.KwChar, token.KwVoid, token.KwStruct,
		token.KwConst, token.KwUnsigned, token.KwLong:
		return true
	}
	return false
}

// postfixExpr parses primary expressions followed by call/index/member/
// increment suffixes.
func (p *parser) postfixExpr() ast.Expr {
	x := p.primaryExpr()
	h := p.h
	for {
		pos := p.cur().Pos
		sub := 0 // the height of the suffix's operands
		switch p.kind() {
		case token.LParen:
			p.next()
			call := &ast.Call{Fun: x}
			call.Pos = pos
			p.enter(pos)
			for !p.at(token.RParen) {
				call.Args = append(call.Args, p.assignExpr())
				sub = max(sub, p.h)
				if !p.accept(token.Comma) {
					break
				}
			}
			p.leave()
			p.expect(token.RParen)
			x = call
		case token.LBracket:
			p.next()
			p.enter(pos)
			idx := p.expr()
			p.leave()
			sub = p.h
			p.expect(token.RBracket)
			ix := &ast.Index{X: x, Idx: idx}
			ix.Pos = pos
			x = ix
		case token.Dot:
			p.next()
			m := &ast.Member{X: x, Name: p.expect(token.Ident).Text}
			m.Pos = pos
			x = m
		case token.Arrow:
			p.next()
			m := &ast.Member{X: x, Name: p.expect(token.Ident).Text, Arrow: true}
			m.Pos = pos
			x = m
		case token.PlusPlus:
			p.next()
			pf := &ast.Postfix{Inc: true, X: x}
			pf.Pos = pos
			x = pf
		case token.MinusMinus:
			p.next()
			pf := &ast.Postfix{Inc: false, X: x}
			pf.Pos = pos
			x = pf
		default:
			p.h = h
			return x
		}
		h = max(h, sub) + 1
		p.height(pos, h)
	}
}

// primaryExpr parses literals, identifiers and parenthesized expressions.
func (p *parser) primaryExpr() ast.Expr {
	pos := p.cur().Pos
	switch p.kind() {
	case token.IntLit, token.CharLit:
		t := p.next()
		lit := &ast.IntLit{Val: t.Val}
		lit.Pos = pos
		lit.SetType(ctypes.Int)
		p.height(pos, 1)
		return lit
	case token.StringLit:
		t := p.next()
		s := t.Str
		// Adjacent string literals concatenate, as in C.
		for p.at(token.StringLit) {
			s += p.next().Str
		}
		lit := &ast.StrLit{Val: s}
		lit.Pos = pos
		lit.SetType(ctypes.CharPtr())
		p.height(pos, 1)
		return lit
	case token.Ident:
		t := p.next()
		id := &ast.Ident{Name: t.Text}
		id.Pos = pos
		p.height(pos, 1)
		return id
	case token.LParen:
		// A parenthesis is a level of its own: it is one more recursion
		// of the parser, though not of the tree.
		p.next()
		p.enter(pos)
		x := p.expr()
		p.leave()
		p.expect(token.RParen)
		p.height(pos, p.h+1)
		return x
	}
	p.errf(pos, "expected expression, found %v", p.cur())
	return nil
}
