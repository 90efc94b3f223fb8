package parser

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/minic/ast"
	"repro/internal/workloads"
)

func mustParse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseSimpleFunction(t *testing.T) {
	f := mustParse(t, `
int add(int a, int b) {
	return a + b;
}
`)
	if len(f.Funcs) != 1 {
		t.Fatalf("got %d funcs", len(f.Funcs))
	}
	fn := f.Funcs[0]
	if fn.Name != "add" || len(fn.Params) != 2 {
		t.Fatalf("fn = %s with %d params", fn.Name, len(fn.Params))
	}
	if fn.Params[0].Name != "a" || !ctypes.Equal(fn.Params[0].Type, ctypes.Int) {
		t.Errorf("param 0 = %s %s", fn.Params[0].Type, fn.Params[0].Name)
	}
	if len(fn.Body.Stmts) != 1 {
		t.Fatalf("body stmts = %d", len(fn.Body.Stmts))
	}
	if _, ok := fn.Body.Stmts[0].(*ast.Return); !ok {
		t.Errorf("stmt is %T, want Return", fn.Body.Stmts[0])
	}
}

func TestParseDeclarators(t *testing.T) {
	f := mustParse(t, `
int x;
int *p;
int **pp;
char buf[64];
int m[3][4];
int *ap[8];
int (*pa)[8];
int (*fp)(int, char*);
void (*ops[16])(void);
int (*(*ffp)(int))(char);
`)
	want := map[string]string{
		"x":   "int",
		"p":   "int*",
		"pp":  "int**",
		"buf": "char[64]",
		"m":   "int[4][3]",
		"ap":  "int*[8]",
		"pa":  "int[8]*",
		"fp":  "int (*)(int, char*)",
		"ops": "void (*)()[16]",
		"ffp": "int (*)(char) (*)(int)",
	}
	if len(f.Globals) != len(want) {
		t.Fatalf("got %d globals", len(f.Globals))
	}
	for _, g := range f.Globals {
		if got := g.Type.String(); got != want[g.Name] {
			t.Errorf("%s: type %q, want %q", g.Name, got, want[g.Name])
		}
	}
}

func TestDeclaratorSemantics(t *testing.T) {
	f := mustParse(t, `int *a[3]; int (*b)[3];`)
	a, b := f.Globals[0].Type, f.Globals[1].Type
	if a.Kind != ctypes.KindArray || a.Elem.Kind != ctypes.KindPtr {
		t.Errorf("int *a[3] should be array of pointer, got %s", a)
	}
	if b.Kind != ctypes.KindPtr || b.Elem.Kind != ctypes.KindArray {
		t.Errorf("int (*b)[3] should be pointer to array, got %s", b)
	}
}

func TestParseStruct(t *testing.T) {
	f := mustParse(t, `
struct vtable {
	void (*greet)(int);
	int (*hash)(char *, int);
};
struct obj {
	struct vtable *vt;
	int data[4];
	struct obj *next;
};
struct obj pool[10];
`)
	if len(f.Structs) != 2 {
		t.Fatalf("got %d structs", len(f.Structs))
	}
	vt := f.Structs[0]
	if vt.Name != "vtable" || len(vt.Fields) != 2 {
		t.Fatalf("vtable = %+v", vt)
	}
	if !vt.Fields[0].Type.IsFuncPtr() {
		t.Errorf("greet should be a function pointer, got %s", vt.Fields[0].Type)
	}
	if !ctypes.Sensitive(ctypes.StructOf(vt)) {
		t.Error("vtable struct must be sensitive")
	}
	obj := f.Structs[1]
	if got := ctypes.StructOf(obj).Size(); got != 8+32+8 {
		t.Errorf("sizeof(struct obj) = %d, want 48", got)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := mustParse(t, `
int classify(int x) {
	int acc = 0;
	if (x < 0) { return -1; } else if (x == 0) return 0;
	while (x > 0) { acc += x; x--; }
	do { acc++; } while (acc < 10);
	for (int i = 0; i < 4; i++) acc += i;
	switch (acc) {
	case 1:
	case 2:
		acc = 100;
		break;
	case 3: acc = 200; break;
	default: acc = 300;
	}
	return acc;
}
`)
	fn := f.Funcs[0]
	if fn.Name != "classify" {
		t.Fatal("bad fn")
	}
	var sw *ast.Switch
	for _, s := range fn.Body.Stmts {
		if s2, ok := s.(*ast.Switch); ok {
			sw = s2
		}
	}
	if sw == nil {
		t.Fatal("switch not parsed")
	}
	if len(sw.Cases) != 3 {
		t.Fatalf("switch has %d cases, want 3", len(sw.Cases))
	}
	if len(sw.Cases[0].Vals) != 2 {
		t.Errorf("stacked case labels should merge: %d vals", len(sw.Cases[0].Vals))
	}
	if !sw.Cases[2].IsDefault {
		t.Error("last case should be default")
	}
}

func TestParseExpressions(t *testing.T) {
	f := mustParse(t, `
int g;
void fn(int *p, char *s) {
	int x = 1 + 2 * 3;
	x = (x << 2) | 1;
	x += g ? 1 : 2;
	*p = x;
	p[3] = -x;
	s[0] = 'a';
	g = sizeof(int) + sizeof(struct pt) + sizeof x;
	int *q = &x;
	x = *q + !x + ~x;
	x = x == 1 && g != 2 || x < g;
}
struct pt { int x; int y; };
`)
	if len(f.Funcs) != 1 || f.Funcs[0].Name != "fn" {
		t.Fatal("fn not parsed")
	}
}

func TestParseFunctionPointerUse(t *testing.T) {
	f := mustParse(t, `
int add(int a, int b) { return a + b; }
int run(int (*op)(int, int), int x) {
	return op(x, x) + (*op)(x, 1);
}
int (*table[2])(int, int) = { add, add };
`)
	if len(f.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	g := f.Globals[0]
	if g.Name != "table" {
		t.Fatal("table missing")
	}
	if _, ok := g.Init.(*ast.InitList); !ok {
		t.Fatalf("table init is %T", g.Init)
	}
}

func TestParseCasts(t *testing.T) {
	mustParse(t, `
void fn(void *p) {
	int *ip = (int *)p;
	char *cp = (char *)ip;
	void (*f)(void) = (void (*)(void))p;
	int x = (int)cp;
	p = (void *)x;
	f();
}
`)
}

func TestParseVariadicPrototype(t *testing.T) {
	f := mustParse(t, `
int printf(char *fmt, ...);
void fn(void) { printf("%d %s", 1, "two"); }
`)
	if !f.Funcs[0].Variadic {
		t.Error("printf should be variadic")
	}
	if f.Funcs[0].Body != nil {
		t.Error("prototype should have nil body")
	}
}

func TestParseGlobalsWithInit(t *testing.T) {
	f := mustParse(t, `
int a = 42;
int b = 6 * 7;
char msg[8] = "hi";
int tab[3] = { 1, 2, 3 };
struct pt { int x; int y; };
struct pt origin = { 0, 0 };
`)
	if len(f.Globals) != 5 {
		t.Fatalf("globals = %d", len(f.Globals))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"int x", "expected"},
		{"int f( {", "expected"},
		{"typedef int t;", "typedef"},
		{"void f(void) { goto l; }", "goto"},
		{"int a[-1];", "negative array size"},
		{"int a[x];", "constant"},
		{"struct s { int x; }; struct s { int y; };", "redefined"},
		{"void f(void) { 1 +; }", "expected expression"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

// TestLexErrorTakesPrecedence: the parser pulls tokens as it goes, yet a
// lexical error anywhere in the source is still the error Parse reports,
// even when a parse error or the nesting bound stops the parse before the
// lexer reaches it.
func TestLexErrorTakesPrecedence(t *testing.T) {
	deep := "int main(void) { return " + strings.Repeat("(", maxNest+200) + "1" +
		strings.Repeat(")", maxNest+200) + "; }"
	cases := []struct{ src, want string }{
		{`int main( { return 0; } "abc`, "1:25: unterminated string literal"},
		{deep + " /* open", "1:2430: unterminated block comment"},
		// Without the lexical errors, the parse errors stand.
		{`int main( { return 0; }`, "1:11: expected type"},
		{deep, "nesting exceeds 1000 levels"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%.40q...): error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestParseAllocs bounds what parsing a bundled source allocates: at most
// 25 bytes per source byte. The parser holds a window of tokens, not the
// whole token stream, so what remains is mostly the syntax tree.
func TestParseAllocs(t *testing.T) {
	srcs := map[string]string{}
	for _, set := range [][]workloads.Workload{workloads.Micro(), workloads.Spec(), workloads.Phoronix()} {
		for _, w := range set {
			srcs[w.Name] = w.Src
		}
	}
	for _, pg := range append(workloads.WebStack(), workloads.WebServe()...) {
		srcs[pg.Name] = pg.Src
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 4
	worst, worstName := 0.0, ""
	for name, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			Parse(src)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
		if per > 25 {
			t.Errorf("%s: parsing allocates %.1f bytes per source byte, want at most 25", name, per)
		}
		if per > worst {
			worst, worstName = per, name
		}
	}
	t.Logf("most bytes per source byte: %.1f (%s)", worst, worstName)
}

func TestParsePerlLikeDispatch(t *testing.T) {
	// The §3.3 motivating shape: an opcode table of function pointers.
	f := mustParse(t, `
int op_add(int x) { return x + 1; }
int op_sub(int x) { return x - 1; }
int (*optable[2])(int) = { op_add, op_sub };
int dispatch(int *prog, int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = optable[prog[i]](acc);
	}
	return acc;
}
`)
	g := f.Globals[0]
	if g.Type.Kind != ctypes.KindArray || !g.Type.Elem.IsFuncPtr() {
		t.Fatalf("optable type = %s", g.Type)
	}
	if !ctypes.Sensitive(g.Type) {
		t.Error("optable must be sensitive")
	}
}

func TestConstExprFolding(t *testing.T) {
	f := mustParse(t, `char buf[4*1024]; int m[1<<4];`)
	if f.Globals[0].Type.Len != 4096 {
		t.Errorf("buf len = %d", f.Globals[0].Type.Len)
	}
	if f.Globals[1].Type.Len != 16 {
		t.Errorf("m len = %d", f.Globals[1].Type.Len)
	}
}
