// Package lexer implements the mini-C scanner.
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/minic/token"
)

// Error is a lexical error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans mini-C source into tokens, one Next call at a time.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	err  error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexical error in the text scanned so far, or nil.
func (l *Lexer) Err() error { return l.err }

// errorf records a lexical error unless an earlier one is already kept:
// only the first is ever reported, so the rest are not formatted.
func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	if l.err == nil {
		l.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			pos := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(pos, "unterminated block comment")
			}
		case c == '#':
			// Preprocessor-style lines are ignored (workloads use them as
			// annotations only).
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// Next returns the next token; at the end of the input it returns EOF,
// and keeps returning it. An unexpected character is recorded as an error
// and skipped, however long the run of them is.
func (l *Lexer) Next() token.Token {
	for {
		l.skipSpace()
		pos := l.pos()
		if l.off >= len(l.src) {
			return token.Token{Kind: token.EOF, Pos: pos}
		}
		c := l.peek()
		switch {
		case isLetter(c):
			return l.ident(pos)
		case isDigit(c):
			return l.number(pos)
		case c == '"':
			return l.stringLit(pos)
		case c == '\'':
			return l.charLit(pos)
		}
		if t, ok := l.operator(pos); ok {
			return t
		}
		l.errorf(pos, "unexpected character %q", rune(c))
		l.advance()
	}
}

func (l *Lexer) ident(pos token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
		l.advance()
	}
	text := l.src[start:l.off]
	if k, ok := token.Keywords[text]; ok {
		return token.Token{Kind: k, Pos: pos, Text: text}
	}
	return token.Token{Kind: token.Ident, Pos: pos, Text: text}
}

func (l *Lexer) number(pos token.Pos) token.Token {
	start := l.off
	base := 10
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		base = 16
	}
	for l.off < len(l.src) && (isDigit(l.peek()) || (base == 16 && isHex(l.peek()))) {
		l.advance()
	}
	text := l.src[start:l.off]
	// Swallow integer suffixes (L, U, UL...).
	for l.off < len(l.src) && (l.peek() == 'L' || l.peek() == 'U' || l.peek() == 'l' || l.peek() == 'u') {
		l.advance()
	}
	digits := text
	if base == 16 {
		digits = text[2:]
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		l.errorf(pos, "bad integer literal %q: %v", text, err)
	}
	return token.Token{Kind: token.IntLit, Pos: pos, Text: text, Val: int64(v)}
}

func (l *Lexer) stringLit(pos token.Pos) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			l.errorf(pos, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			b.WriteByte(l.escape(pos))
			continue
		}
		b.WriteByte(c)
	}
	s := b.String()
	return token.Token{Kind: token.StringLit, Pos: pos, Text: s, Str: s}
}

func (l *Lexer) charLit(pos token.Pos) token.Token {
	l.advance() // opening quote
	var v byte
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated char literal")
		return token.Token{Kind: token.CharLit, Pos: pos}
	}
	c := l.advance()
	if c == '\\' {
		v = l.escape(pos)
	} else {
		v = c
	}
	if l.off < len(l.src) && l.peek() == '\'' {
		l.advance()
	} else {
		l.errorf(pos, "unterminated char literal")
	}
	return token.Token{Kind: token.CharLit, Pos: pos, Val: int64(v)}
}

// escape decodes the escape sequence after a backslash; a backslash at
// the end of the input is an error, not a read past it.
func (l *Lexer) escape(pos token.Pos) byte {
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated escape")
		return 0
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'x':
		var v byte
		for i := 0; i < 2 && l.off < len(l.src) && isHex(l.peek()); i++ {
			v = v<<4 | hexVal(l.advance())
		}
		return v
	}
	l.errorf(pos, "unknown escape \\%c", c)
	return c
}

// operator scans the operator or punctuator at pos; ok is false, with
// nothing consumed, when no operator starts there.
func (l *Lexer) operator(pos token.Pos) (t token.Token, ok bool) {
	mk := func(k token.Kind, n int) (token.Token, bool) {
		for i := 0; i < n; i++ {
			l.advance()
		}
		return token.Token{Kind: k, Pos: pos}, true
	}
	c, c2 := l.peek(), l.peek2()
	c3 := byte(0)
	if l.off+2 < len(l.src) {
		c3 = l.src[l.off+2]
	}
	switch c {
	case '(':
		return mk(token.LParen, 1)
	case ')':
		return mk(token.RParen, 1)
	case '{':
		return mk(token.LBrace, 1)
	case '}':
		return mk(token.RBrace, 1)
	case '[':
		return mk(token.LBracket, 1)
	case ']':
		return mk(token.RBracket, 1)
	case ';':
		return mk(token.Semi, 1)
	case ',':
		return mk(token.Comma, 1)
	case ':':
		return mk(token.Colon, 1)
	case '?':
		return mk(token.Question, 1)
	case '~':
		return mk(token.Tilde, 1)
	case '.':
		if c2 == '.' && c3 == '.' {
			return mk(token.Ellipsis, 3)
		}
		return mk(token.Dot, 1)
	case '+':
		switch c2 {
		case '+':
			return mk(token.PlusPlus, 2)
		case '=':
			return mk(token.PlusAssign, 2)
		}
		return mk(token.Plus, 1)
	case '-':
		switch c2 {
		case '-':
			return mk(token.MinusMinus, 2)
		case '=':
			return mk(token.MinusAssign, 2)
		case '>':
			return mk(token.Arrow, 2)
		}
		return mk(token.Minus, 1)
	case '*':
		if c2 == '=' {
			return mk(token.StarAssign, 2)
		}
		return mk(token.Star, 1)
	case '/':
		if c2 == '=' {
			return mk(token.SlashAssign, 2)
		}
		return mk(token.Slash, 1)
	case '%':
		if c2 == '=' {
			return mk(token.PercentAssign, 2)
		}
		return mk(token.Percent, 1)
	case '&':
		switch c2 {
		case '&':
			return mk(token.AndAnd, 2)
		case '=':
			return mk(token.AmpAssign, 2)
		}
		return mk(token.Amp, 1)
	case '|':
		switch c2 {
		case '|':
			return mk(token.OrOr, 2)
		case '=':
			return mk(token.PipeAssign, 2)
		}
		return mk(token.Pipe, 1)
	case '^':
		if c2 == '=' {
			return mk(token.CaretAssign, 2)
		}
		return mk(token.Caret, 1)
	case '!':
		if c2 == '=' {
			return mk(token.NotEq, 2)
		}
		return mk(token.Not, 1)
	case '<':
		if c2 == '<' {
			if c3 == '=' {
				return mk(token.ShlAssign, 3)
			}
			return mk(token.Shl, 2)
		}
		if c2 == '=' {
			return mk(token.Le, 2)
		}
		return mk(token.Lt, 1)
	case '>':
		if c2 == '>' {
			if c3 == '=' {
				return mk(token.ShrAssign, 3)
			}
			return mk(token.Shr, 2)
		}
		if c2 == '=' {
			return mk(token.Ge, 2)
		}
		return mk(token.Gt, 1)
	case '=':
		if c2 == '=' {
			return mk(token.EqEq, 2)
		}
		return mk(token.Assign, 1)
	}
	return token.Token{}, false
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

func hexVal(c byte) byte {
	switch {
	case isDigit(c):
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}
