// Package parser implements a recursive-descent parser for mini-C, including
// full C declarator syntax (int (*f[8])(int, char*)), struct declarations,
// casts with abstract declarators, and brace initializer lists.
package parser

import (
	"fmt"

	"repro/internal/ctypes"
	"repro/internal/minic/ast"
	"repro/internal/minic/lexer"
	"repro/internal/minic/token"
)

// Error is a parse error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a mini-C translation unit. A lexical error anywhere in src
// takes precedence over a parse error: Parse reports the first lexical
// error if there is one, else the first parse error.
func Parse(src string) (*ast.File, error) {
	p := &parser{lex: lexer.New(src), structs: map[string]*ctypes.Struct{}}
	p.win[0], p.n = p.lex.Next(), 1
	f, err := p.file()
	if err != nil {
		// The parse stopped early: scan the rest for a lexical error.
		for p.lex.Next().Kind != token.EOF {
		}
	}
	if lerr := p.lex.Err(); lerr != nil {
		return nil, lerr
	}
	return f, err
}

type parser struct {
	// The parser pulls tokens from lex as it goes. win is a ring of the
	// current token, win[head], and the n-1 tokens after it that peekKind
	// has already scanned; no rule looks more than two tokens ahead.
	lex     *lexer.Lexer
	win     [4]token.Token
	head, n int

	structs map[string]*ctypes.Struct
	unit    *ast.File

	// depth counts the tree levels open above the construct being parsed:
	// enclosing statements, operator and call operands, parentheses,
	// initializer braces and declarator levels. h is the height of the
	// expression the last expression parser returned (a leaf is 1).
	depth, h int

	// pendingParams holds named parameters from the most recent function
	// declarator, consumed by function definitions.
	pendingParams []ast.Param
}

// bail is used with panic/recover to unwind on the first parse error,
// following the idiom from Effective Go's regexp example; the public API
// converts it into an error return.
type bail struct{ err error }

func (p *parser) errf(pos token.Pos, format string, args ...any) {
	panic(bail{&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}

// maxNest bounds the height of the syntax tree, counted as the parser's
// depth field counts it. Sema, irgen and the AST folder walk the tree
// recursively, and a Go stack overflow is a fatal error that no caller
// can recover from, so a source nested past the bound is a parse error.
// The deepest bundled source (464.h264ref) reaches 23, the deepest RIPE
// program 6.
const maxNest = 1000

// enter opens one tree level at pos; leave closes it.
func (p *parser) enter(pos token.Pos) {
	p.depth++
	if p.depth > maxNest {
		p.errf(pos, "nesting exceeds %d levels", maxNest)
	}
}

func (p *parser) leave() { p.depth-- }

// height records h as the height of the expression just built at pos,
// which fails when it reaches past maxNest under the levels open above it.
func (p *parser) height(pos token.Pos, h int) {
	p.h = h
	if p.depth+h > maxNest {
		p.errf(pos, "nesting exceeds %d levels", maxNest)
	}
}

func (p *parser) cur() token.Token     { return p.win[p.head] }
func (p *parser) kind() token.Kind     { return p.win[p.head].Kind }
func (p *parser) at(k token.Kind) bool { return p.kind() == k }

// peekKind returns the kind of the token n places after the current one
// (n <= 2). Past the end of the input the lexer keeps returning EOF.
func (p *parser) peekKind(n int) token.Kind {
	for ; p.n <= n; p.n++ {
		p.win[(p.head+p.n)%len(p.win)] = p.lex.Next()
	}
	return p.win[(p.head+n)%len(p.win)].Kind
}

// next consumes and returns the current token; EOF is never consumed.
func (p *parser) next() token.Token {
	t := p.win[p.head]
	if t.Kind != token.EOF {
		p.head = (p.head + 1) % len(p.win)
		if p.n--; p.n == 0 {
			p.win[p.head], p.n = p.lex.Next(), 1
		}
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	if !p.at(k) {
		p.errf(p.cur().Pos, "expected %v, found %v", k, p.cur())
	}
	return p.next()
}

// file parses the whole translation unit.
func (p *parser) fileBody() *ast.File {
	f := &ast.File{}
	p.unit = f
	for !p.at(token.EOF) {
		p.topLevel(f)
	}
	return f
}

func (p *parser) file() (f *ast.File, err error) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(bail); ok {
				f, err = nil, b.err
				return
			}
			panic(r)
		}
	}()
	return p.fileBody(), nil
}

// topLevel parses one top-level declaration: struct definition, global
// variable, function definition or prototype.
func (p *parser) topLevel(f *ast.File) {
	// Skip storage-class keywords at top level.
	for p.accept(token.KwStatic) || p.accept(token.KwExtern) || p.accept(token.KwConst) {
	}
	if p.at(token.KwTypedef) {
		p.errf(p.cur().Pos, "typedef is not supported in mini-C")
	}

	// struct Name { ... };  (definition)
	if p.at(token.KwStruct) && p.peekKind(1) == token.Ident && p.peekKind(2) == token.LBrace {
		st := p.structDef()
		f.Structs = append(f.Structs, st)
		p.expect(token.Semi)
		return
	}

	base := p.typeBase()
	if p.accept(token.Semi) {
		return // bare "struct foo;" forward declaration
	}
	name, ty := p.declarator(base)
	if name == "" {
		p.errf(p.cur().Pos, "expected declarator name")
	}

	if ty.Kind == ctypes.KindFunc {
		fd := &ast.FuncDecl{
			Pos:      p.cur().Pos,
			Name:     name,
			Ret:      ty.Sig.Ret,
			Variadic: ty.Sig.Variadic,
			Params:   p.pendingParams,
		}
		p.pendingParams = nil
		if p.accept(token.Semi) {
			f.Funcs = append(f.Funcs, fd) // prototype
			return
		}
		fd.Body = p.block()
		f.Funcs = append(f.Funcs, fd)
		return
	}

	// Global variable(s).
	for {
		g := &ast.VarDecl{Pos: p.cur().Pos, Name: name, Type: ty, IsGlobal: true}
		if p.accept(token.Assign) {
			g.Init = p.initializer()
		}
		f.Globals = append(f.Globals, g)
		if !p.accept(token.Comma) {
			break
		}
		name, ty = p.declarator(base)
	}
	p.expect(token.Semi)
}

// structDef parses "struct Name { fields }".
func (p *parser) structDef() *ctypes.Struct {
	p.expect(token.KwStruct)
	name := p.expect(token.Ident).Text
	st := p.internStruct(name)
	if len(st.Fields) > 0 {
		p.errf(p.cur().Pos, "struct %s redefined", name)
	}
	p.expect(token.LBrace)
	for !p.at(token.RBrace) {
		base := p.typeBase()
		for {
			fname, fty := p.declarator(base)
			if fname == "" {
				p.errf(p.cur().Pos, "expected field name in struct %s", name)
			}
			elem := fty
			for elem.Kind == ctypes.KindArray {
				elem = elem.Elem
			}
			if elem.Kind == ctypes.KindFunc {
				p.errf(p.cur().Pos, "field %s of function type in struct %s (use a pointer)", fname, name)
			}
			st.Fields = append(st.Fields, ctypes.Field{Name: fname, Type: fty})
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.Semi)
	}
	p.expect(token.RBrace)
	return st
}

func (p *parser) internStruct(name string) *ctypes.Struct {
	if st, ok := p.structs[name]; ok {
		return st
	}
	st := &ctypes.Struct{Name: name}
	p.structs[name] = st
	return st
}

// typeBase parses the base type: int/char/void/struct X, absorbing const,
// unsigned and long qualifiers. The qualifiers are ignored: every integer
// but char is 64-bit and signed in mini-C, and char is an unsigned byte, so
// `unsigned char` is char and `unsigned long` is int (unsigned arithmetic
// is not modelled because no measured property depends on it).
func (p *parser) typeBase() *ctypes.Type {
	for p.accept(token.KwConst) || p.accept(token.KwStatic) {
	}
	switch p.kind() {
	case token.KwUnsigned, token.KwLong:
		p.next()
		for p.accept(token.KwLong) || p.accept(token.KwInt) {
		}
		if p.accept(token.KwChar) {
			return ctypes.Char
		}
		return ctypes.Int
	case token.KwInt:
		p.next()
		return ctypes.Int
	case token.KwChar:
		p.next()
		return ctypes.Char
	case token.KwVoid:
		p.next()
		return ctypes.Void
	case token.KwStruct:
		p.next()
		name := p.expect(token.Ident).Text
		return ctypes.StructOf(p.internStruct(name))
	}
	p.errf(p.cur().Pos, "expected type, found %v", p.cur())
	return nil
}

// startsType reports whether the current token can begin a type.
func (p *parser) startsType() bool {
	switch p.kind() {
	case token.KwInt, token.KwChar, token.KwVoid, token.KwStruct,
		token.KwConst, token.KwUnsigned, token.KwLong, token.KwStatic:
		return true
	}
	return false
}

// declarator parses a (possibly abstract) C declarator and applies it to
// base, returning the declared name ("" if abstract) and the full type.
func (p *parser) declarator(base *ctypes.Type) (string, *ctypes.Type) {
	name, wrap := p.declaratorFn()
	return name, wrap(base)
}

// declaratorFn parses a declarator and returns the name plus a function
// mapping the base type to the declared type.
func (p *parser) declaratorFn() (string, func(*ctypes.Type) *ctypes.Type) {
	if p.at(token.Star) {
		p.enter(p.next().Pos)
		for p.accept(token.KwConst) {
		}
		name, inner := p.declaratorFn()
		p.leave()
		return name, func(t *ctypes.Type) *ctypes.Type {
			return inner(ctypes.PointerTo(t))
		}
	}
	return p.directDeclarator()
}

func (p *parser) directDeclarator() (string, func(*ctypes.Type) *ctypes.Type) {
	name := ""
	inner := func(t *ctypes.Type) *ctypes.Type { return t }

	switch {
	case p.at(token.Ident):
		name = p.next().Text
	case p.at(token.LParen) && p.nestedDeclaratorAhead():
		p.enter(p.next().Pos)
		name, inner = p.declaratorFn()
		p.expect(token.RParen)
		p.leave()
	}

	// Suffixes, applied right-to-left per C semantics. Each is one type
	// level, open until the last suffix is parsed.
	var sufs []func(*ctypes.Type) *ctypes.Type
	depth := p.depth
	for {
		if p.at(token.LBracket) || p.at(token.LParen) {
			p.enter(p.cur().Pos)
		}
		if p.accept(token.LBracket) {
			if p.accept(token.RBracket) {
				// Unsized array in a parameter adjusts to pointer; model as
				// length-0 array, adjusted by the param logic below.
				sufs = append(sufs, func(t *ctypes.Type) *ctypes.Type {
					return ctypes.ArrayOf(t, 0)
				})
				continue
			}
			n := p.constExpr()
			if n < 0 {
				p.errf(p.cur().Pos, "negative array size %d", n)
			}
			p.expect(token.RBracket)
			ln := n
			sufs = append(sufs, func(t *ctypes.Type) *ctypes.Type {
				return ctypes.ArrayOf(t, ln)
			})
			continue
		}
		if p.at(token.LParen) {
			p.next()
			params, names, variadic := p.paramList()
			p.expect(token.RParen)
			if name != "" && len(sufs) == 0 {
				p.pendingParams = names
			}
			ps := params
			va := variadic
			sufs = append(sufs, func(t *ctypes.Type) *ctypes.Type {
				return ctypes.FuncOf(t, ps, va)
			})
			continue
		}
		break
	}
	p.depth = depth

	return name, func(t *ctypes.Type) *ctypes.Type {
		for i := len(sufs) - 1; i >= 0; i-- {
			t = sufs[i](t)
		}
		return inner(t)
	}
}

// nestedDeclaratorAhead distinguishes "(" opening a nested declarator from
// "(" opening a parameter list in an abstract declarator like int(*)(int).
func (p *parser) nestedDeclaratorAhead() bool {
	k := p.peekKind(1)
	return k == token.Star || k == token.LParen || k == token.Ident
}

// paramList parses a function parameter list.
func (p *parser) paramList() ([]*ctypes.Type, []ast.Param, bool) {
	var types []*ctypes.Type
	var names []ast.Param
	variadic := false
	if p.at(token.RParen) {
		return types, names, false
	}
	// (void) means no parameters.
	if p.at(token.KwVoid) && p.peekKind(1) == token.RParen {
		p.next()
		return types, names, false
	}
	for {
		if p.accept(token.Ellipsis) {
			variadic = true
			break
		}
		pos := p.cur().Pos
		base := p.typeBase()
		nm, ty := p.declarator(base)
		// Array parameters adjust to pointers (C semantics).
		if ty.Kind == ctypes.KindArray {
			ty = ctypes.PointerTo(ty.Elem)
		}
		if ty.Kind == ctypes.KindFunc {
			ty = ctypes.PointerTo(ty)
		}
		types = append(types, ty)
		names = append(names, ast.Param{Pos: pos, Name: nm, Type: ty})
		if !p.accept(token.Comma) {
			break
		}
	}
	return types, names, variadic
}

// typeName parses a type-name (base + abstract declarator), used by casts
// and sizeof.
func (p *parser) typeName() *ctypes.Type {
	base := p.typeBase()
	name, ty := p.declarator(base)
	if name != "" {
		p.errf(p.cur().Pos, "unexpected name %q in type", name)
	}
	return ty
}

// constExpr parses and folds a constant integer expression (used for array
// sizes and case labels).
func (p *parser) constExpr() int64 {
	e := p.condExpr()
	v, ok := ast.IntConst(e)
	if !ok {
		p.errf(e.Position(), "expected constant expression")
	}
	return v
}
