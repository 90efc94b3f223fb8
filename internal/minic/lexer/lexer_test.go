package lexer

import (
	"testing"
	"testing/quick"

	"repro/internal/minic/token"
)

// all scans l to the end and returns every token up to and including EOF.
func all(l *Lexer) []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func kinds(src string) []token.Kind {
	l := New(src)
	var ks []token.Kind
	for _, t := range all(l) {
		ks = append(ks, t.Kind)
	}
	return ks
}

func TestKeywordsAndIdents(t *testing.T) {
	l := New("int x; struct foo bar;")
	toks := all(l)
	want := []token.Kind{
		token.KwInt, token.Ident, token.Semi,
		token.KwStruct, token.Ident, token.Ident, token.Semi, token.EOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[1].Text != "x" || toks[4].Text != "foo" {
		t.Errorf("identifier spellings wrong: %q %q", toks[1].Text, toks[4].Text)
	}
}

func TestNumbers(t *testing.T) {
	l := New("0 42 0x10 0xff 123456789")
	toks := all(l)
	wantVals := []int64{0, 42, 16, 255, 123456789}
	for i, w := range wantVals {
		if toks[i].Kind != token.IntLit || toks[i].Val != w {
			t.Errorf("token %d = %v (val %d), want IntLit %d", i, toks[i].Kind, toks[i].Val, w)
		}
	}
	if err := l.Err(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestStringAndCharLiterals(t *testing.T) {
	l := New(`"hello\n" 'a' '\0' '\n' "\x41B"`)
	toks := all(l)
	if toks[0].Str != "hello\n" {
		t.Errorf("string = %q", toks[0].Str)
	}
	if toks[1].Val != 'a' || toks[2].Val != 0 || toks[3].Val != '\n' {
		t.Errorf("char values = %d %d %d", toks[1].Val, toks[2].Val, toks[3].Val)
	}
	if toks[4].Str != "AB" {
		t.Errorf("hex escape string = %q", toks[4].Str)
	}
}

func TestOperators(t *testing.T) {
	src := "-> ... ++ -- << >> <<= >>= <= >= == != && || += -= *= /= %= &= |= ^="
	want := []token.Kind{
		token.Arrow, token.Ellipsis, token.PlusPlus, token.MinusMinus,
		token.Shl, token.Shr, token.ShlAssign, token.ShrAssign,
		token.Le, token.Ge, token.EqEq, token.NotEq,
		token.AndAnd, token.OrOr,
		token.PlusAssign, token.MinusAssign, token.StarAssign,
		token.SlashAssign, token.PercentAssign, token.AmpAssign,
		token.PipeAssign, token.CaretAssign, token.EOF,
	}
	got := kinds(src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment
int /* block
comment */ x; # pragma-ish line
`
	got := kinds(src)
	want := []token.Kind{token.KwInt, token.Ident, token.Semi, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestUnterminatedLiterals(t *testing.T) {
	for _, src := range []string{`"abc`, `'a`, "/* never closed"} {
		l := New(src)
		all(l)
		if l.Err() == nil {
			t.Errorf("source %q: want a lexical error", src)
		}
	}
}

// TestUnexpectedCharacters skips every unexpected character, keeps only
// the first error, and keeps returning EOF at the end of the input (the
// parser's lookahead may ask past it).
func TestUnexpectedCharacters(t *testing.T) {
	l := New("a @@@ b $ c")
	got := kinds("a @@@ b $ c")
	want := []token.Kind{token.Ident, token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	all(l)
	if err := l.Err(); err == nil || err.Error() != `1:3: unexpected character '@'` {
		t.Errorf("error %v, want the first @ at 1:3", err)
	}
	for i := 0; i < 3; i++ {
		if tk := l.Next(); tk.Kind != token.EOF {
			t.Errorf("Next after EOF = %v", tk.Kind)
		}
	}
}

func TestPositions(t *testing.T) {
	l := New("int\n  x;")
	toks := all(l)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

// Property: the lexer terminates and always ends with EOF on arbitrary input.
func TestLexerTotal(t *testing.T) {
	f := func(src string) bool {
		l := New(src)
		toks := all(l)
		return len(toks) > 0 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: lexing is deterministic.
func TestLexerDeterministic(t *testing.T) {
	f := func(src string) bool {
		a := all(New(src))
		b := all(New(src))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
