package repro

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// FuzzCompile feeds arbitrary bytes to the whole front end and compiler
// under cpi: hostile source must come back as a program or an error, never
// a Go panic. The micro workloads seed the search with well-formed C, one
// source nested past the parser's bound seeds it with a deep tree, and one
// with a run of characters the lexer rejects.
func FuzzCompile(f *testing.F) {
	for _, w := range workloads.Micro() {
		f.Add([]byte(w.Src))
	}
	f.Add([]byte(deepSources(2000)["parentheses"]))
	f.Add([]byte(unexpectedRun(2000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := core.Compile(string(data), core.Config{Protect: core.CPI, DEP: true})
		if (prog == nil) == (err == nil) {
			t.Fatalf("Compile returned program %v and error %v", prog != nil, err)
		}
	})
}

// deepSources returns programs whose syntax tree nests n levels deep, one
// per shape.
func deepSources(n int) map[string]string {
	main := func(body string) string { return "int main(void) {\n" + body + "\n}\n" }
	return map[string]string{
		"parentheses":   main("return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";"),
		"left-deep sum": main("return 1" + strings.Repeat("+1", n-1) + ";"),
		"nested ifs":    main("int x = 1;\n" + strings.Repeat("if (x) ", n) + "return 0;\nreturn 1;"),
		"nested blocks": main(strings.Repeat("{", n) + strings.Repeat("}", n) + "return 0;"),
		"prefix chain":  main("return " + strings.Repeat("- ", n) + "1;"),
		"nested calls": "int f(int x) { return x; }\n" +
			main("return "+strings.Repeat("f(", n)+"1"+strings.Repeat(")", n)+";"),
		"pointer declarator": main("int " + strings.Repeat("*", n) + "p = 0;\nreturn 0;"),
	}
}

// TestDeepNestingIsAnError requires sources nested far past the parser's
// bound to come back from Compile as errors. Without the bound each of
// them recursed until the Go stack overflowed, a fatal error that no
// caller can recover from; the test caps the stack at 64 MB, where 100,000
// levels of the first three shapes did, and checks a 300,000-term sum too.
func TestDeepNestingIsAnError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	srcs := deepSources(100_000)
	srcs["left-deep sum of 300,000 terms"] = deepSources(300_000)["left-deep sum"]
	for name, src := range srcs {
		prog, err := core.Compile(src, core.Config{Protect: core.CPI})
		if err == nil || prog != nil {
			t.Errorf("%s: Compile returned program %v and error %v, want an error", name, prog != nil, err)
			continue
		}
		if !strings.Contains(err.Error(), "nesting exceeds") {
			t.Errorf("%s: error %q does not name the nesting bound", name, err)
		}
	}
	for name, src := range deepSources(50) {
		if _, err := core.Compile(src, core.Config{Protect: core.CPI}); err != nil {
			t.Errorf("%s, 50 levels: %v", name, err)
		}
	}
}

// unexpectedRun returns a valid program followed by n characters that
// start no token.
func unexpectedRun(n int) string {
	return "int main(void) { return 0; }\n" + strings.Repeat("@", n)
}

// TestUnexpectedCharacterRunIsAnError compiles a program followed by a
// million characters that start no token, on a 16 MB stack: the lexer
// skips them in a loop, so Compile returns the positioned error of the
// first one.
func TestUnexpectedCharacterRunIsAnError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	prog, err := core.Compile(unexpectedRun(1_000_000), core.Config{Protect: core.CPI})
	if err == nil || prog != nil {
		t.Fatalf("Compile returned program %v and error %v, want an error", prog != nil, err)
	}
	if want := "2:1: unexpected character '@'"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q, want it to contain %q", err, want)
	}
}
