package instrument

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := sema.Check(f); err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	// Re-verify once the test body — and with it every instrument pass the
	// test ran — has finished: the passes must leave the program well-formed,
	// protection flags included.
	t.Cleanup(func() {
		if err := p.Verify(); err != nil {
			t.Errorf("post-instrumentation verify: %v", err)
		}
	})
	return p
}

func TestSafeStackMarksEscapes(t *testing.T) {
	p := lower(t, `
int helper(int *p) { return *p; }
int f(void) {
	int scalar = 1;          // safe: never escapes
	int escapee = 2;         // unsafe: address passed to call
	int arr[8];              // unsafe: variable indexing
	char buf[16];            // unsafe: passed to strcpy
	for (int i = 0; i < 8; i++) arr[i] = i;
	strcpy(buf, "x");
	return scalar + helper(&escapee) + arr[3] + buf[0];
}
`)
	SafeStack(p)
	fn := p.FuncByName("f")
	unsafe := map[string]bool{}
	for _, obj := range fn.Frame {
		unsafe[obj.Name] = obj.Unsafe
	}
	if unsafe["scalar"] {
		t.Error("scalar should stay on the safe stack")
	}
	for _, name := range []string{"escapee", "arr", "buf"} {
		if !unsafe[name] {
			t.Errorf("%s should be on the unsafe stack", name)
		}
	}
	if !fn.NeedsUnsafeFrame {
		t.Error("f needs an unsafe frame")
	}
	if leaf := p.FuncByName("helper"); leaf.NeedsUnsafeFrame {
		t.Error("helper should not need an unsafe frame")
	}
}

func TestSafeStackLoopIndexStaysSafe(t *testing.T) {
	p := lower(t, `
int f(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) acc += i;
	return acc;
}
`)
	SafeStack(p)
	for _, obj := range p.FuncByName("f").Frame {
		if obj.Unsafe {
			t.Errorf("object %s needlessly unsafe", obj.Name)
		}
	}
}

const mixedSrc = `
struct vt { void (*fn)(void); };
struct obj { struct vt *v; int data; };
void cb(void) {}
void (*global_fp)(void) = cb;
int plain[64];
void touch(struct obj *o, int i, void (*f)(void)) {
	o->v->fn = f;      // store of a code pointer via pointer chain
	o->data = i;       // plain int store
	plain[i] = i;      // plain int store via global
	global_fp = f;     // code pointer store to global
}
int readback(struct obj *o) {
	o->v->fn();        // load + icall
	return o->data;
}
`

func TestCPIFlags(t *testing.T) {
	p := lower(t, mixedSrc)
	SafeStack(p)
	stats := WithBackend(p, backend.CPI.Backend(), Opts{})

	var fptrStores, intStores int
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Ins {
				in := &b.Ins[i]
				if in.Op != ir.OpStore {
					continue
				}
				if in.Ty.IsFuncPtr() {
					if in.Flags&ir.ProtCPIStore == 0 && in.A.Kind == ir.ValReg {
						t.Errorf("unflagged code-pointer store: %s", in.String())
					}
					fptrStores++
				}
				if in.Ty != nil && in.Ty.Kind == 1 /* int */ {
					if in.Flags&ir.ProtCPIStore != 0 {
						t.Errorf("int store needlessly flagged: %s", in.String())
					}
					intStores++
				}
			}
		}
	}
	if fptrStores == 0 || intStores == 0 {
		t.Fatalf("test program mislowered: fptr=%d int=%d", fptrStores, intStores)
	}
	if stats.Instrumented == 0 || stats.Instrumented >= stats.MemOps {
		t.Errorf("CPI should instrument a strict subset: %d of %d",
			stats.Instrumented, stats.MemOps)
	}
}

func TestCPSInstrumentsLessThanCPI(t *testing.T) {
	p1 := lower(t, mixedSrc)
	SafeStack(p1)
	cpi := WithBackend(p1, backend.CPI.Backend(), Opts{})

	p2 := lower(t, mixedSrc)
	SafeStack(p2)
	cps := WithBackend(p2, backend.CPS.Backend(), Opts{})

	if cps.Instrumented >= cpi.Instrumented {
		t.Errorf("CPS (%d) must instrument fewer ops than CPI (%d): "+
			"o->v loads are sensitive for CPI only",
			cps.Instrumented, cpi.Instrumented)
	}
	if cps.Instrumented == 0 {
		t.Error("CPS must instrument the code-pointer stores")
	}
}

func TestSoftBoundInstrumentsMost(t *testing.T) {
	p := lower(t, mixedSrc)
	sb := SoftBound(p)
	p2 := lower(t, mixedSrc)
	SafeStack(p2)
	cpi := WithBackend(p2, backend.CPI.Backend(), Opts{})
	if sb.Instrumented+sb.Checks <= cpi.Instrumented+cpi.Checks {
		t.Errorf("SoftBound (%d+%d) must exceed CPI (%d+%d)",
			sb.Instrumented, sb.Checks, cpi.Instrumented, cpi.Checks)
	}
}

func TestCFIFlagsICalls(t *testing.T) {
	p := lower(t, mixedSrc)
	CFI(p)
	found := false
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Ins {
				if b.Ins[i].Op == ir.OpICall {
					found = true
					if b.Ins[i].Flags&ir.ProtCFI == 0 {
						t.Error("icall not CFI-flagged")
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no icall in test program")
	}
}

func TestStringHeuristicDemotesCharStar(t *testing.T) {
	// s is manifestly a string (flows into strlen); q is a universal
	// char* recipient whose provenance is unknown.
	p := lower(t, `
int f(char **out) {
	char *s = "hello";
	int n = strlen(s);
	return n;
}
`)
	SafeStack(p)
	WithBackend(p, backend.CPI.Backend(), Opts{})
	fn := p.FuncByName("f")
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.IsMemOp() && in.Ty != nil && in.Ty.IsPtr() &&
				in.Flags&ir.ProtUniversal != 0 {
				t.Errorf("string-heuristic miss: %s", in.String())
			}
		}
	}
}

// TestStringHeuristicPromotionInvariant pins the §3.2.1 char* heuristic to
// decide identically whether the source is lowered with register promotion
// (copies become mov chains) or spill-everything (copies become frame-slot
// load/store pairs). Historically the heuristic predated promotion and only
// one of the two spellings fired, so the same program's instrumented set —
// and with it the safe-store traffic — depended on a lowering flag.
func TestStringHeuristicPromotionInvariant(t *testing.T) {
	lowerOpt := func(src string, promote bool) *ir.Program {
		t.Helper()
		f, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := sema.Check(f); err != nil {
			t.Fatalf("sema: %v", err)
		}
		p, err := irgen.LowerWith(f, irgen.Options{PromoteRegisters: promote})
		if err != nil {
			t.Fatalf("lower: %v", err)
		}
		return p
	}
	universal := func(p *ir.Program) int {
		n := 0
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Ins {
					if in := &b.Ins[i]; in.IsMemOp() && in.Flags&ir.ProtUniversal != 0 {
						n++
					}
				}
			}
		}
		return n
	}
	cases := []struct {
		name, src string
		want      int // universal-flagged memops, in BOTH lowering modes
	}{
		{
			// The stored value reaches the char** slot through two local
			// copies; its string origin ("hello") and string use (strlen)
			// are both only visible across the copy chain.
			name: "copy-chain-string",
			src: `
int f(char **out, int which) {
	char *s = "hello";
	char *t = s;
	char *u = t;
	*out = u;
	int n = strlen(u);
	return n + which;
}
`,
			want: 0,
		},
		{
			// Unknown provenance, no string use anywhere: the store stays a
			// universal-pointer access under either lowering.
			name: "opaque-char-star",
			src: `
int g(char **out, char *raw) {
	char *r = raw;
	*out = r;
	return 0;
}
`,
			want: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, promote := range []bool{false, true} {
				p := lowerOpt(tc.src, promote)
				SafeStack(p)
				WithBackend(p, backend.CPI.Backend(), Opts{})
				if got := universal(p); got != tc.want {
					t.Errorf("promote=%v: %d universal-flagged memops, want %d",
						promote, got, tc.want)
				}
				if err := p.Verify(); err != nil {
					t.Errorf("promote=%v: verify: %v", promote, err)
				}
			}
		})
	}
}

func TestMemcpySafeVariantSelection(t *testing.T) {
	p := lower(t, `
struct vt { void (*fn)(void); };
struct obj { struct vt *v; int d; };
void f(struct obj *dst, struct obj *src, int *a, int *b) {
	memcpy((void *)dst, (void *)src, sizeof(struct obj)); // sensitive
	memcpy((void *)a, (void *)b, 64);                     // plain ints
}
`)
	SafeStack(p)
	WithBackend(p, backend.CPI.Backend(), Opts{})
	fn := p.FuncByName("f")
	var flags []bool
	for _, b := range fn.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Op == ir.OpCall && in.Callee < 0 && in.Intr.Name() == "memcpy" {
				flags = append(flags, in.Flags&ir.ProtSafeIntr != 0)
			}
		}
	}
	if len(flags) != 2 {
		t.Fatalf("memcpy calls found: %d", len(flags))
	}
	if !flags[0] {
		t.Error("memcpy of sensitive struct must use the safe variant")
	}
	if flags[1] {
		t.Error("memcpy of int arrays should be proven insensitive (§3.2.2)")
	}
}

func TestTable2StatsShape(t *testing.T) {
	// A vtable-heavy "C++-like" program must show higher MOCPI than a flat
	// integer kernel (the omnetpp-vs-bzip2 contrast of Table 2).
	cxxish := `
struct vt { int (*get)(int); };
struct obj { struct vt *v; int x; };
int getter(int x) { return x + 1; }
struct vt the_vt = { getter };
int work(struct obj *objs, int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc += objs[i].v->get(objs[i].x);
	}
	return acc;
}
int main(void) {
	struct obj *o = (struct obj *)malloc(10 * sizeof(struct obj));
	for (int i = 0; i < 10; i++) { o[i].v = &the_vt; o[i].x = i; }
	return work(o, 10);
}
`
	flat := `
int main(void) {
	int a[64];
	int acc = 0;
	for (int i = 0; i < 64; i++) a[i] = i;
	for (int i = 1; i < 64; i++) acc += a[i] - a[i-1];
	return acc;
}
`
	mo := func(src string) float64 {
		p := lower(t, src)
		SafeStack(p)
		stats := WithBackend(p, backend.CPI.Backend(), Opts{})
		return stats.MOPct()
	}
	c, f := mo(cxxish), mo(flat)
	if c <= f {
		t.Errorf("vtable-heavy MOCPI (%.1f%%) should exceed flat kernel (%.1f%%)", c, f)
	}
	if f > 10 {
		t.Errorf("flat kernel MOCPI should be near zero, got %.1f%%", f)
	}
}

func TestStatsFNUStack(t *testing.T) {
	p := lower(t, `
int leaf1(int x) { return x + 1; }
int leaf2(int x) { return x * 2; }
int buf_user(void) {
	char buf[32];
	strcpy(buf, "hi");
	return buf[0];
}
int main(void) { return leaf1(1) + leaf2(2) + buf_user(); }
`)
	SafeStack(p)
	s := analysis.Collect(p)
	if s.Funcs != 4 {
		t.Fatalf("funcs = %d", s.Funcs)
	}
	if s.UnsafeFrames != 1 {
		t.Errorf("unsafe frames = %d, want 1 (only buf_user)", s.UnsafeFrames)
	}
	if pct := s.FNUStackPct(); pct != 25 {
		t.Errorf("FNUStack = %.0f%%, want 25%%", pct)
	}
}
