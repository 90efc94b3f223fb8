package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vm"
)

// Randomized promotion-equivalence fuzz: generate small mini-C programs
// mixing exactly the features register promotion has to get right —
// address-taken and plain locals, pointer indirection through &x, function
// pointers, short-circuit and conditional temporaries, pre/post increments
// (including the f(i, i++) capture shape), assignments nested inside
// expressions — then cross-check the promoted and unpromoted compilations:
// both must verify, and execution must agree on output, exit code, trap and
// heap-visible state, with promoted steps never exceeding unpromoted. The
// function pointers, pointer arguments and intrinsic calls make this the
// generator whose programs consume register metadata, so each promoted run
// is also checked against its NoBlockCompile twin (the handlers, which
// maintain metadata unconditionally) on Trap, ExitCode, Output, Steps and
// Cycles.
//
// The generator only emits terminating programs (literal loop bounds, loop
// variables frozen inside their own body, no recursion) and only reads
// initialized variables, so the differential comparison is exact.

type progGen struct {
	r       *rand.Rand
	b       strings.Builder
	vars    []string // in-scope, initialized int variables (assignable)
	ptrs    []string // int* variables, each pointing at a live int
	loop    []string // variables frozen as loop counters
	callees []string // helpers callable here (empty inside h0: no recursion)
	next    int
	line    int
}

func (g *progGen) pick(list []string) string {
	return list[g.r.Intn(len(list))]
}

// assignable returns variables that may be written (not loop counters).
func (g *progGen) assignable() []string {
	var out []string
	for _, v := range g.vars {
		frozen := false
		for _, l := range g.loop {
			if v == l {
				frozen = true
				break
			}
		}
		if !frozen {
			out = append(out, v)
		}
	}
	return out
}

// scoped runs body and drops the variables it declared: mini-C blocks scope
// their declarations, so names introduced inside must not leak to later
// statements outside.
func (g *progGen) scoped(body func()) {
	nv, np := len(g.vars), len(g.ptrs)
	body()
	g.vars = g.vars[:nv]
	g.ptrs = g.ptrs[:np]
}

// expr emits an int-valued expression of bounded depth.
func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		case 1:
			if len(g.ptrs) > 0 && g.r.Intn(3) == 0 {
				return "*" + g.pick(g.ptrs)
			}
			return g.pick(g.vars)
		case 2:
			return fmt.Sprintf("garr[(%s) & 7]", g.pick(g.vars))
		default:
			return "gsum"
		}
	}
	a, b := g.expr(depth-1), g.expr(depth-1)
	switch g.r.Intn(12) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / ((%s & 7) + 1))", a, b)
	case 4:
		return fmt.Sprintf("(%s %% ((%s & 7) + 1))", a, b)
	case 5:
		return fmt.Sprintf("(%s ^ (%s & 15))", a, b)
	case 6:
		return fmt.Sprintf("(%s << (%s & 3))", a, b)
	case 7:
		return fmt.Sprintf("(%s < %s)", a, b)
	case 8:
		return fmt.Sprintf("(%s && %s)", a, b)
	case 9:
		return fmt.Sprintf("(%s || (%s != 0))", a, b)
	case 10:
		return fmt.Sprintf("(%s ? %s : %s)", a, b, g.expr(depth-1))
	default:
		if av := g.assignable(); len(av) > 0 && g.r.Intn(2) == 0 {
			// Assignment and increment inside an expression: the capture
			// shapes copy propagation must not break.
			v := g.pick(av)
			if g.r.Intn(2) == 0 {
				return fmt.Sprintf("(%s + (%s = %s))", v, v, a)
			}
			return fmt.Sprintf("(%s + %s++)", v, v)
		}
		return fmt.Sprintf("(%s > %s)", a, b)
	}
}

func (g *progGen) emit(format string, args ...any) {
	g.b.WriteString("\t" + fmt.Sprintf(format, args...) + "\n")
}

// stmt emits one statement; depth bounds nesting.
func (g *progGen) stmt(depth int) {
	g.line++
	av := g.assignable()
	switch g.r.Intn(10) {
	case 0: // fresh initialized local
		v := fmt.Sprintf("v%d", g.next)
		g.next++
		g.emit("int %s = %s;", v, g.expr(2))
		g.vars = append(g.vars, v)
	case 1: // address-taken local + pointer into it
		v := fmt.Sprintf("v%d", g.next)
		p := fmt.Sprintf("p%d", g.next)
		g.next++
		g.emit("int %s = %s;", v, g.expr(1))
		g.emit("int *%s = &%s;", p, v)
		g.emit("*%s = *%s + %s;", p, p, g.expr(1))
		g.vars = append(g.vars, v)
		g.ptrs = append(g.ptrs, p)
	case 2:
		if len(av) > 0 {
			ops := []string{"=", "+=", "-=", "*=", "^=", "|="}
			g.emit("%s %s %s;", g.pick(av), ops[g.r.Intn(len(ops))], g.expr(2))
		}
	case 3:
		if len(av) > 0 {
			if g.r.Intn(2) == 0 {
				g.emit("%s++;", g.pick(av))
			} else {
				g.emit("--%s;", g.pick(av))
			}
		}
	case 4:
		g.emit("gsum = gsum + (%s & 1023);", g.expr(2))
	case 5:
		g.emit("garr[(%s) & 7] = %s & 255;", g.expr(1), g.expr(2))
	case 6: // if / if-else
		if depth > 0 {
			g.emit("if (%s) {", g.expr(2))
			g.scoped(func() { g.stmt(depth - 1) })
			if g.r.Intn(2) == 0 {
				g.emit("} else {")
				g.scoped(func() { g.stmt(depth - 1) })
			}
			g.emit("}")
		}
	case 7: // bounded for loop with frozen counter
		if depth > 0 {
			v := fmt.Sprintf("v%d", g.next)
			g.next++
			g.emit("int %s = 0;", v)
			g.vars = append(g.vars, v)
			g.loop = append(g.loop, v)
			g.emit("for (%s = 0; %s < %d; %s++) {", v, v, 2+g.r.Intn(5), v)
			g.scoped(func() {
				g.stmt(depth - 1)
				if g.r.Intn(3) == 0 {
					g.emit("if ((%s & 3) == 2) { continue; }", v)
					g.stmt(depth - 1)
				}
			})
			g.emit("}")
			g.loop = g.loop[:len(g.loop)-1]
		}
	case 8: // helper call, sometimes the f(i, i++) capture shape
		if len(g.callees) == 0 {
			g.emit("gsum = gsum ^ (%s & 255);", g.expr(2))
			break
		}
		v := fmt.Sprintf("v%d", g.next)
		g.next++
		h := g.pick(g.callees)
		if len(av) > 0 && g.r.Intn(3) == 0 {
			c := g.pick(av)
			g.emit("int %s = %s(%s, %s++);", v, h, c, c)
		} else {
			g.emit("int %s = %s(%s, %s);", v, h, g.expr(2), g.expr(1))
		}
		g.vars = append(g.vars, v)
	default: // function pointer dispatch
		if len(g.callees) < 2 {
			g.emit("garr[(%s) & 7] = garr[(%s) & 7] + 1;", g.expr(1), g.expr(1))
			break
		}
		v := fmt.Sprintf("v%d", g.next)
		fp := fmt.Sprintf("fp%d", g.next)
		g.next++
		g.emit("int (*%s)(int, int);", fp)
		g.emit("%s = %s;", fp, g.callees[0])
		g.emit("if (%s) { %s = %s; }", g.expr(1), fp, g.callees[1])
		g.emit("int %s = %s(%s, %s);", v, fp, g.expr(1), g.expr(1))
		g.vars = append(g.vars, v)
	}
}

func (g *progGen) fn(name string, callees []string, nStmts, depth int) {
	g.b.WriteString(fmt.Sprintf("int %s(int a, int b) {\n", name))
	g.vars = []string{"a", "b"}
	g.ptrs = nil
	g.loop = nil
	g.callees = callees
	for i := 0; i < nStmts; i++ {
		g.stmt(depth)
	}
	g.emit("return (%s) & 65535;", g.expr(2))
	g.b.WriteString("}\n")
}

// generate builds one deterministic random program.
func generate(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.b.WriteString("int gsum = 0;\nint garr[8];\n")
	g.fn("h0", nil, 2+g.r.Intn(3), 1)
	g.fn("h1", []string{"h0"}, 2+g.r.Intn(4), 2)

	g.b.WriteString("int main(void) {\n")
	g.vars = []string{}
	g.ptrs = nil
	g.loop = nil
	g.callees = []string{"h0", "h1"}
	g.emit("int seed = %d;", g.r.Intn(1000))
	g.vars = append(g.vars, "seed")
	for i := 0; i < 4+g.r.Intn(6); i++ {
		g.stmt(2)
	}
	g.emit(`printf("%%d %%d\n", gsum, %s);`, g.expr(2))
	g.emit("return gsum & 255;")
	g.b.WriteString("}\n")
	return g.b.String()
}

func FuzzPromotionEquivalence(f *testing.F) {
	n := 60
	if !testing.Short() {
		n = 200
	}
	for seed := int64(0); seed < int64(n); seed++ {
		f.Add(seed)
	}
	cfgs := []Config{
		{DEP: true},
		{Protect: CPS, DEP: true},
		{Protect: CPI, DEP: true},
		{Protect: PAC, DEP: true},
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := generate(seed)
		for _, cfg := range cfgs {
			promotedProg, err := Compile(src, cfg)
			if err != nil {
				t.Fatalf("seed %d: promoted compile: %v\n%s", seed, err, src)
			}
			ucfg := cfg
			ucfg.NoPromote = true
			unpromotedProg, err := Compile(src, ucfg)
			if err != nil {
				t.Fatalf("seed %d: unpromoted compile: %v\n%s", seed, err, src)
			}
			pm, err := promotedProg.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			um, err := unpromotedProg.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			pr := pm.Run("main")
			ur := um.Run("main")
			if pr.Trap != vm.TrapExit || ur.Trap != vm.TrapExit {
				t.Fatalf("seed %d/%v: traps %v / %v\n%s", seed, cfg.Protect, pr.Trap, ur.Trap, src)
			}
			if pr.Output != ur.Output || pr.ExitCode != ur.ExitCode {
				t.Fatalf("seed %d/%v: promoted (%q, %d) vs unpromoted (%q, %d)\n%s",
					seed, cfg.Protect, pr.Output, pr.ExitCode, ur.Output, ur.ExitCode, src)
			}
			if ph, uh := pm.HeapGlobalsHash(), um.HeapGlobalsHash(); ph != uh {
				t.Fatalf("seed %d/%v: heap state differs\n%s", seed, cfg.Protect, src)
			}
			nm, err := vm.NewShared(promotedProg.IR,
				vm.PredecodeWith(promotedProg.IR, vm.PredecodeOptions{NoBlockCompile: true}),
				promotedProg.VMConfig())
			if err != nil {
				t.Fatal(err)
			}
			if nr := nm.Run("main"); nr.Trap != pr.Trap || nr.ExitCode != pr.ExitCode ||
				nr.Output != pr.Output || nr.Steps != pr.Steps || nr.Cycles != pr.Cycles {
				t.Fatalf("seed %d/%v: blocks (%v, %d, %q, %d steps, %d cycles) vs noblocks (%v, %d, %q, %d steps, %d cycles)\n%s",
					seed, cfg.Protect, pr.Trap, pr.ExitCode, pr.Output, pr.Steps, pr.Cycles,
					nr.Trap, nr.ExitCode, nr.Output, nr.Steps, nr.Cycles, src)
			}
			if pr.Steps > ur.Steps {
				t.Fatalf("seed %d/%v: promotion increased steps %d > %d\n%s",
					seed, cfg.Protect, pr.Steps, ur.Steps, src)
			}
			// Predecoding and execution operate on mirror structures and
			// must leave the verified IR — protection flags included —
			// untouched.
			if err := promotedProg.IR.Verify(); err != nil {
				t.Fatalf("seed %d/%v: post-run verify: %v\n%s", seed, cfg.Protect, err, src)
			}
			if err := unpromotedProg.IR.Verify(); err != nil {
				t.Fatalf("seed %d/%v: post-run verify (nopromote): %v\n%s", seed, cfg.Protect, err, src)
			}
		}
	})
}
