package ctypes

import (
	"testing"
	"testing/quick"
)

func TestBasicSizes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int64
	}{
		{Int, 8},
		{Char, 1},
		{PointerTo(Int), 8},
		{PointerTo(Char), 8},
		{ArrayOf(Char, 16), 16},
		{ArrayOf(Int, 4), 32},
		{ArrayOf(ArrayOf(Int, 2), 3), 48},
	}
	for _, c := range cases {
		if got := c.ty.Size(); got != c.size {
			t.Errorf("Size(%s) = %d, want %d", c.ty, got, c.size)
		}
	}
}

func TestStructLayout(t *testing.T) {
	// struct { char c; int x; char d; } -> offsets 0, 8, 16; size 24.
	s := &Struct{Name: "s", Fields: []Field{
		{Name: "c", Type: Char},
		{Name: "x", Type: Int},
		{Name: "d", Type: Char},
	}}
	ty := StructOf(s)
	if got := ty.Size(); got != 24 {
		t.Fatalf("size = %d, want 24", got)
	}
	if f := s.FieldByName("x"); f.Offset != 8 {
		t.Errorf("offset of x = %d, want 8", f.Offset)
	}
	if f := s.FieldByName("d"); f.Offset != 16 {
		t.Errorf("offset of d = %d, want 16", f.Offset)
	}
	if s.FieldByName("nope") != nil {
		t.Error("FieldByName on missing field should be nil")
	}
}

func TestStructPacking(t *testing.T) {
	// struct { char a; char b; } packs to size 2 with align 1... but our
	// minimum struct alignment is the max field alignment (1 here).
	s := &Struct{Name: "p", Fields: []Field{
		{Name: "a", Type: Char},
		{Name: "b", Type: Char},
	}}
	if got := StructOf(s).Size(); got != 2 {
		t.Errorf("size = %d, want 2", got)
	}
	if got := StructOf(s).Align(); got != 1 {
		t.Errorf("align = %d, want 1", got)
	}
}

func TestEmptyStructHasSize(t *testing.T) {
	s := &Struct{Name: "e"}
	if got := StructOf(s).Size(); got != 1 {
		t.Errorf("empty struct size = %d, want 1", got)
	}
}

func TestEqual(t *testing.T) {
	fp := PointerTo(FuncOf(Int, []*Type{Int}, false))
	fp2 := PointerTo(FuncOf(Int, []*Type{Int}, false))
	if !Equal(fp, fp2) {
		t.Error("identical function pointer types must be Equal")
	}
	fp3 := PointerTo(FuncOf(Int, []*Type{Char}, false))
	if Equal(fp, fp3) {
		t.Error("different param types must not be Equal")
	}
	if Equal(PointerTo(Int), PointerTo(Char)) {
		t.Error("int* != char*")
	}
	if !Equal(ArrayOf(Int, 3), ArrayOf(Int, 3)) {
		t.Error("int[3] == int[3]")
	}
	if Equal(ArrayOf(Int, 3), ArrayOf(Int, 4)) {
		t.Error("int[3] != int[4]")
	}
	va := FuncOf(Int, nil, true)
	nva := FuncOf(Int, nil, false)
	if Equal(va, nva) {
		t.Error("variadic-ness must distinguish signatures")
	}
}

func TestSensitiveFig7(t *testing.T) {
	intp := PointerTo(Int)
	fn := FuncOf(Void, nil, false)
	fptr := PointerTo(fn)

	vtbl := &Struct{Name: "vtbl", Fields: []Field{{Name: "call", Type: fptr}}}
	obj := &Struct{Name: "obj", Fields: []Field{
		{Name: "v", Type: PointerTo(StructOf(vtbl))},
		{Name: "x", Type: Int},
	}}
	plain := &Struct{Name: "plain", Fields: []Field{
		{Name: "x", Type: Int},
		{Name: "y", Type: ArrayOf(Char, 8)},
	}}

	cases := []struct {
		ty   *Type
		want bool
	}{
		{Int, false},
		{Char, false},
		{Void, true},
		{fn, true},
		{fptr, true},                     // pointer to function: code pointer
		{PointerTo(fptr), true},          // pointer to code pointer
		{VoidPtr(), true},                // universal
		{CharPtr(), true},                // universal
		{intp, false},                    // int* is regular (pointer 5 in Fig. 1)
		{PointerTo(intp), false},         // int** regular
		{StructOf(vtbl), true},           // struct with fptr member
		{StructOf(obj), true},            // struct reaching fptr via member ptr
		{StructOf(plain), false},         // no sensitive members
		{ArrayOf(fptr, 4), true},         // array of code pointers
		{ArrayOf(Int, 4), false},         // array of ints
		{PointerTo(StructOf(obj)), true}, // "C++ object pointer"
	}
	for _, c := range cases {
		if got := Sensitive(c.ty); got != c.want {
			t.Errorf("Sensitive(%s) = %v, want %v", c.ty, got, c.want)
		}
	}
}

func TestSensitiveRecursiveStruct(t *testing.T) {
	// struct list { struct list *next; int v; } — not sensitive: no code
	// pointers anywhere in the cycle.
	list := &Struct{Name: "list"}
	list.Fields = []Field{
		{Name: "next", Type: PointerTo(StructOf(list))},
		{Name: "v", Type: Int},
	}
	if Sensitive(StructOf(list)) {
		t.Error("pure data recursive struct should not be sensitive")
	}

	// struct node { struct node *next; void (*op)(void); } — sensitive.
	node := &Struct{Name: "node"}
	node.Fields = []Field{
		{Name: "next", Type: PointerTo(StructOf(node))},
		{Name: "op", Type: PointerTo(FuncOf(Void, nil, false))},
	}
	if !Sensitive(StructOf(node)) {
		t.Error("recursive struct with fptr member must be sensitive")
	}
	if !SensitivePtr(PointerTo(StructOf(node))) {
		t.Error("pointer to sensitive recursive struct must be sensitive")
	}
}

func TestSensitivePtr(t *testing.T) {
	fptr := PointerTo(FuncOf(Void, nil, false))
	if !SensitivePtr(fptr) {
		t.Error("function pointer is sensitive")
	}
	if !SensitivePtr(VoidPtr()) || !SensitivePtr(CharPtr()) {
		t.Error("universal pointers are sensitive")
	}
	if SensitivePtr(PointerTo(Int)) {
		t.Error("int* is not sensitive")
	}
	if SensitivePtr(Int) {
		t.Error("non-pointers are never sensitive pointers")
	}
	if !SensitivePtr(PointerTo(fptr)) {
		t.Error("pointer to code pointer is sensitive (Fig. 1 pointer 1)")
	}
}

// cpsProtected is the instrumenter's CPS classification (§3.3): loads and
// stores of code pointers always, and of universal pointers, which may
// carry code pointers at run time, conditionally.
func cpsProtected(t *Type) bool { return t.IsFuncPtr() || t.IsUniversalPtr() }

func TestCPSClassifier(t *testing.T) {
	fptr := PointerTo(FuncOf(Void, nil, false))
	if !cpsProtected(fptr) || !cpsProtected(VoidPtr()) || !cpsProtected(CharPtr()) {
		t.Error("CPS instruments code pointers and universal pointers")
	}
	if cpsProtected(PointerTo(Int)) || cpsProtected(PointerTo(fptr)) {
		t.Error("CPS leaves data pointers and ptr-to-code-ptr uninstrumented (§3.3)")
	}
}

// Property: CPS-protected set is a subset of the CPI-sensitive set
// (the paper's relaxation only ever removes protection).
func TestCPSSubsetOfCPI(t *testing.T) {
	gen := newTypeGen()
	f := func(seed int64) bool {
		ty := gen.random(seed)
		return !cpsProtected(ty) || SensitivePtr(ty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSensitiveMutuallyRecursiveStructs(t *testing.T) {
	fptr := PointerTo(FuncOf(Void, nil, false))

	// struct even { struct odd *peer; int x; };
	// struct odd  { struct even *peer; int y; };
	// A pure-data two-struct cycle: the classifier must terminate and
	// report insensitive from either entry point.
	even := &Struct{Name: "even"}
	odd := &Struct{Name: "odd"}
	even.Fields = []Field{{Name: "peer", Type: PointerTo(StructOf(odd))}, {Name: "x", Type: Int}}
	odd.Fields = []Field{{Name: "peer", Type: PointerTo(StructOf(even))}, {Name: "y", Type: Int}}
	for _, s := range []*Struct{even, odd} {
		if Sensitive(StructOf(s)) {
			t.Errorf("pure-data mutually recursive struct %s reported sensitive", s.Name)
		}
		if SensitivePtr(PointerTo(StructOf(s))) {
			t.Errorf("pointer to pure-data mutually recursive struct %s reported sensitive", s.Name)
		}
	}

	// Same shape, but one side of the cycle carries a code pointer: both
	// structs must be sensitive, reached from either entry point.
	ctx := &Struct{Name: "ctx"}
	cb := &Struct{Name: "cb"}
	ctx.Fields = []Field{{Name: "handlers", Type: PointerTo(StructOf(cb))}, {Name: "n", Type: Int}}
	cb.Fields = []Field{{Name: "owner", Type: PointerTo(StructOf(ctx))}, {Name: "fn", Type: fptr}}
	for _, s := range []*Struct{ctx, cb} {
		if !Sensitive(StructOf(s)) {
			t.Errorf("mutually recursive struct %s reaching a code pointer must be sensitive", s.Name)
		}
		if !SensitivePtr(PointerTo(StructOf(s))) {
			t.Errorf("pointer into the %s/%s cycle must be sensitive", ctx.Name, cb.Name)
		}
	}

	// Diamond: two paths converge on the same leaf struct. The visiting
	// set must not suppress re-examination along the second path.
	leaf := &Struct{Name: "leaf", Fields: []Field{{Name: "fn", Type: fptr}}}
	l := &Struct{Name: "l", Fields: []Field{{Name: "x", Type: Int}}}
	r := &Struct{Name: "r", Fields: []Field{{Name: "p", Type: PointerTo(StructOf(leaf))}}}
	top := &Struct{Name: "top", Fields: []Field{
		{Name: "l", Type: PointerTo(StructOf(l))},
		{Name: "r", Type: PointerTo(StructOf(r))},
	}}
	if !Sensitive(StructOf(top)) {
		t.Error("diamond reaching a code pointer through its second branch must be sensitive")
	}
}

func TestSensitiveArrayOfStructsOfFuncPtrs(t *testing.T) {
	fptr := PointerTo(FuncOf(Void, nil, false))
	handler := &Struct{Name: "handler", Fields: []Field{
		{Name: "id", Type: Int},
		{Name: "fn", Type: fptr},
	}}
	plain := &Struct{Name: "plain", Fields: []Field{
		{Name: "id", Type: Int},
		{Name: "tag", Type: ArrayOf(Char, 4)},
	}}
	cases := []struct {
		ty   *Type
		want bool
	}{
		{ArrayOf(StructOf(handler), 8), true},             // handler table
		{ArrayOf(ArrayOf(StructOf(handler), 2), 4), true}, // 2-D handler table
		{ArrayOf(StructOf(plain), 8), false},              // data-only table
		{PointerTo(ArrayOf(StructOf(handler), 8)), true},  // pointer to the table
		{ArrayOf(PointerTo(StructOf(handler)), 8), true},  // table of object pointers
		{ArrayOf(PointerTo(StructOf(plain)), 8), false},   // table of data pointers
	}
	for _, c := range cases {
		if got := Sensitive(c.ty); got != c.want {
			t.Errorf("Sensitive(%s) = %v, want %v", c.ty, got, c.want)
		}
	}
	// A struct embedding the sensitive table inherits its sensitivity.
	vt := &Struct{Name: "vt", Fields: []Field{
		{Name: "slots", Type: ArrayOf(StructOf(handler), 4)},
	}}
	if !Sensitive(StructOf(vt)) {
		t.Error("struct embedding an array of fptr-carrying structs must be sensitive")
	}
}

func TestSensitiveDeepPointerChains(t *testing.T) {
	deep := func(base *Type, levels int) *Type {
		for i := 0; i < levels; i++ {
			base = PointerTo(base)
		}
		return base
	}
	// int************: regular at every depth — the classifier recurses on
	// the pointee, not on a bounded prefix of it.
	if Sensitive(deep(Int, 12)) {
		t.Error("deep chain of int pointers must stay insensitive")
	}
	if SensitivePtr(deep(Int, 12)) {
		t.Error("SensitivePtr on a deep int pointer chain must be false")
	}
	// The same chain ending in a function type is a (deeply indirected)
	// code pointer, and ending in void* a (deeply indirected) universal
	// pointer: both sensitive from every level.
	fnChain := deep(FuncOf(Void, nil, false), 12)
	if !Sensitive(fnChain) || !SensitivePtr(fnChain) {
		t.Error("deep chain ending in a function type must be sensitive")
	}
	voidChain := deep(Void, 12)
	if !Sensitive(voidChain) || !SensitivePtr(voidChain) {
		t.Error("deep chain ending in void must be sensitive")
	}
	charChain := deep(Char, 12) // char************; char* sits at the bottom
	if !Sensitive(charChain) {
		t.Error("deep chain bottoming out in char* must be sensitive (universal)")
	}
}

// Property: Sensitive is monotone under pointer wrapping for non-char base:
// if T is sensitive then T* is sensitive.
func TestSensitiveMonotone(t *testing.T) {
	gen := newTypeGen()
	f := func(seed int64) bool {
		ty := gen.random(seed)
		if Sensitive(ty) && !Sensitive(PointerTo(ty)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: all sizes positive and aligned to their alignment.
func TestSizeAlignProperty(t *testing.T) {
	gen := newTypeGen()
	f := func(seed int64) bool {
		ty := gen.random(seed)
		if ty.Kind == KindFunc {
			return true
		}
		sz, al := ty.Size(), ty.Align()
		return sz > 0 && al > 0 && sz%al == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// typeGen builds deterministic pseudo-random types for property tests.
type typeGen struct{ n int }

func newTypeGen() *typeGen { return &typeGen{} }

func (g *typeGen) random(seed int64) *Type {
	s := uint64(seed)
	return g.build(&s, 4)
}

func (g *typeGen) build(s *uint64, depth int) *Type {
	next := func(n uint64) uint64 {
		*s = *s*6364136223846793005 + 1442695040888963407
		return (*s >> 33) % n
	}
	if depth == 0 {
		switch next(3) {
		case 0:
			return Int
		case 1:
			return Char
		default:
			return Void
		}
	}
	switch next(6) {
	case 0:
		return Int
	case 1:
		return Char
	case 2:
		return PointerTo(g.build(s, depth-1))
	case 3:
		return ArrayOf(g.nonVoid(s, depth-1), 1+int64(next(7)))
	case 4:
		g.n++
		nf := 1 + int(next(3))
		st := &Struct{Name: fmt_name(g.n)}
		for i := 0; i < nf; i++ {
			st.Fields = append(st.Fields, Field{
				Name: fmt_name(i),
				Type: g.nonVoid(s, depth-1),
			})
		}
		return StructOf(st)
	default:
		nf := int(next(3))
		var ps []*Type
		for i := 0; i < nf; i++ {
			ps = append(ps, g.nonVoid(s, 0))
		}
		return PointerTo(FuncOf(g.build(s, 0), ps, false))
	}
}

func (g *typeGen) nonVoid(s *uint64, depth int) *Type {
	t := g.build(s, depth)
	for t.Kind == KindVoid || t.Kind == KindFunc {
		t = g.build(s, depth)
	}
	return t
}

func fmt_name(i int) string { return "t" + string(rune('a'+i%26)) }
