package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// FuzzSegmentArith turns fuzz bytes into a short mini-C program of integer
// arithmetic and word loads and stores over global arrays, casts to char,
// byte loads and stores through a pointer into a global char array, and
// loads and stores of a global int scalar, then runs it under vanilla and
// cpi with block compilation on and off: the segment executors (the inline
// ALU, the const ⊗ reg shape, the GEP→load/store pairs, the register cast,
// the byte and global-scalar accesses) must be invisible, so Trap, Steps,
// Cycles, ExitCode, Output and the trap PC must agree. Every operand starts
// out in the initialized global k, so the front end cannot fold the
// arithmetic away; division may hit a zero divisor and shifts take any
// count, and the input may also pick a small step budget that cuts the run
// mid-segment.
func FuzzSegmentArith(f *testing.F) {
	f.Add([]byte("arith"))
	// No budget, k = {0, 1, 2, 3, 7, 8, 63, 64}, 8 iterations of s = s;
	// then byteLoop's 8 iterations of one statement of each char and
	// scalar kind: p[i] = (char)(t), p[5] = 63, t = t ^ p[i], z = i,
	// s = s - (char)(z).
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 0, 0, 0,
		5, 7, 0, 0, 3, 1, 16, 6, 2, 0, 3, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, budget := arithProgram(data)
		for _, cfg := range []core.Config{{DEP: true}, {Protect: core.CPI, DEP: true}} {
			prog, err := core.Compile(src, cfg)
			if err != nil {
				t.Fatalf("generated program does not compile: %v\n%s", err, src)
			}
			blocks, noblocks := runBlocksBoth(t, prog, budget)
			compareBlockResults(t, cfgName(cfg)+"\n"+src, blocks, noblocks)
		}
	})
}

// TestSegmentArithCorpusOutcomes pins the outcome each committed
// FuzzSegmentArith entry is named for, so an edit to arithProgram cannot
// silently turn a budget cut or a division by zero into something else:
// budget-* runs into its step budget (Steps is budget+1), divzero-* divides
// by zero and exit-* exits, under vanilla and cpi alike.
func TestSegmentArithCorpusOutcomes(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSegmentArith", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus entries (%v)", err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, budget := arithProgram([]byte(data))
		for _, cfg := range []core.Config{{DEP: true}, {Protect: core.CPI, DEP: true}} {
			prog, err := core.Compile(src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			vcfg := prog.VMConfig()
			vcfg.MaxSteps = budget
			m, err := vm.NewShared(prog.IR, prog.Predecoded(), vcfg)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Run("main")
			prefix, _, _ := strings.Cut(name, "-")
			var good bool
			switch prefix {
			case "budget":
				good = budget > 0 && r.Trap == vm.TrapMaxSteps && r.Steps == budget+1
			case "divzero":
				good = r.Trap == vm.TrapDivZero
			case "exit":
				good = r.Trap == vm.TrapExit
			default:
				t.Fatalf("%s: unknown outcome prefix %q", name, prefix)
			}
			if !good {
				t.Errorf("%s under %s: trap %v after %d steps (budget %d)", name, cfgName(cfg), r.Trap, r.Steps, budget)
			}
		}
	}
}

// arithGen decodes fuzz bytes; an exhausted input reads as zeros, so every
// byte string decodes to a program.
type arithGen struct {
	data []byte
	b    strings.Builder
}

func (g *arithGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	c := g.data[0]
	g.data = g.data[1:]
	return int(c)
}

// arithConsts are the literal operands: shift-count edges, small and
// large magnitudes, negatives.
var arithConsts = []string{"0", "1", "2", "3", "7", "8", "63", "64", "65",
	"255", "1000", "(-1)", "(-7)", "(-64)", "9223372036854775807", "(-9223372036854775807 - 1)"}

// arithOps are the binary operators; all of them lower to Bin ops.
var arithOps = []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"<", ">", "<=", ">=", "==", "!="}

// arithProgram builds the program and the step budget (0: the default).
func arithProgram(data []byte) (string, int64) {
	g := &arithGen{data: data}
	var budget int64
	if c := g.next(); c&1 != 0 {
		budget = int64(c)*3 + 1
	}
	g.b.WriteString("int k[8] = {")
	for j := 0; j < 8; j++ {
		if j > 0 {
			g.b.WriteString(", ")
		}
		g.b.WriteString(arithConsts[g.next()%len(arithConsts)])
	}
	g.b.WriteString("};\nint a[8];\nint b[8];\nchar c[8];\nint z;\n" +
		"int main(void) {\n\tchar *p = c;\n\tint s = k[0];\n\tint t = k[1];\n")
	fmt.Fprintf(&g.b, "\tfor (int i = 0; i < %d; i++) {\n", 1+g.next()%8)
	for n := 1 + g.next()%8; n > 0; n-- {
		g.b.WriteString("\t\t")
		switch g.next() % 5 {
		case 0:
			g.b.WriteString("s")
		case 1:
			g.b.WriteString("t")
		case 2:
			g.b.WriteString("a[")
			g.index(1)
			g.b.WriteString("]")
		case 3:
			g.b.WriteString("b[")
			g.index(1)
			g.b.WriteString("]")
		default:
			g.b.WriteString("k[")
			g.index(1)
			g.b.WriteString("]")
		}
		g.b.WriteString(" = ")
		g.expr(2)
		g.b.WriteString(";\n")
	}
	g.b.WriteString("\t}\n")
	g.byteLoop()
	g.b.WriteString("\tprintf(\"%d %d %d %d\\n\", s, t, a[3] + b[5], z + p[2]);\n\treturn (s ^ t) & 255;\n}\n")
	return g.b.String(), budget
}

// byteLoop writes a second loop of up to five statements over the char
// array c, through the pointer p, and the int scalar z: a cast to char
// stored as a byte, a constant byte store, a byte load, a store of z, and a
// load of z cast to char. It reads its bytes after every other part of the program and
// runs after the first loop, so an existing corpus input keeps its first
// loop, and a budget cut or trap inside it, unchanged.
func (g *arithGen) byteLoop() {
	n := g.next() % 6
	if n == 0 {
		return
	}
	fmt.Fprintf(&g.b, "\tfor (int i = 0; i < %d; i++) {\n", 1+g.next()%8)
	for ; n > 0; n-- {
		g.b.WriteString("\t\t")
		switch g.next() % 5 {
		case 0:
			g.b.WriteString("p[")
			g.index(1)
			g.b.WriteString("] = (char)(")
			g.expr(2)
			g.b.WriteString(");\n")
		case 1:
			g.b.WriteString("p[")
			g.index(1)
			fmt.Fprintf(&g.b, "] = %s;\n", arithConsts[g.next()%len(arithConsts)])
		case 2:
			g.b.WriteString("t = t ^ p[")
			g.index(1)
			g.b.WriteString("];\n")
		case 3:
			g.b.WriteString("z = ")
			g.expr(2)
			g.b.WriteString(";\n")
		default:
			g.b.WriteString("s = s - (char)(z);\n")
		}
	}
	g.b.WriteString("\t}\n")
}

// index writes an in-bounds array index: the loop counter (below 8), a
// literal, or, given depth, a masked expression of that depth.
func (g *arithGen) index(depth int) {
	switch c := g.next(); {
	case c%3 == 0:
		g.b.WriteString("i")
	case c%3 == 1 || depth <= 0:
		fmt.Fprintf(&g.b, "%d", c/3%8)
	default:
		g.b.WriteString("(")
		g.expr(depth)
		g.b.WriteString(") & 7")
	}
}

// expr writes an expression of at most depth operator levels.
func (g *arithGen) expr(depth int) {
	c := g.next()
	if depth <= 0 || c%3 == 0 {
		switch c / 3 % 7 {
		case 0:
			g.b.WriteString("s")
		case 1:
			g.b.WriteString("t")
		case 2:
			g.b.WriteString("i")
		case 3:
			g.b.WriteString(arithConsts[g.next()%len(arithConsts)])
		case 4:
			g.b.WriteString("a[")
			g.index(depth - 1)
			g.b.WriteString("]")
		case 5:
			g.b.WriteString("b[")
			g.index(depth - 1)
			g.b.WriteString("]")
		default:
			g.b.WriteString("k[")
			g.index(depth - 1)
			g.b.WriteString("]")
		}
		return
	}
	op := arithOps[g.next()%len(arithOps)]
	g.b.WriteString("(")
	g.expr(depth - 1)
	fmt.Fprintf(&g.b, " %s ", op)
	// Most divisors are forced odd so a run usually gets past its first
	// division; the rest may be zero and trap.
	if (op == "/" || op == "%") && c&4 != 0 {
		g.b.WriteString("(")
		g.expr(depth - 1)
		g.b.WriteString(" | 1)")
	} else {
		g.expr(depth - 1)
	}
	g.b.WriteString(")")
}
