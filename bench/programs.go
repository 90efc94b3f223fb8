package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// backends are the protection columns the benchmark measures: the
// unprotected baseline and the three pointer-integrity backends. The list is
// fixed rather than read from the registry so that registering a backend does
// not silently change what the benchmark runs.
var backends = []string{"vanilla", "cps", "cpi", "pac"}

// program is one mini-C source of the workload corpus.
type program struct {
	name string
	src  string
}

// cell is one program compiled for one backend.
type cell struct {
	prog    program
	backend string
}

func fromWorkloads(ws []workloads.Workload) []program {
	out := make([]program, len(ws))
	for i, w := range ws {
		out[i] = program{w.Name, w.Src}
	}
	return out
}

func fromPages(ps []workloads.WebPage) []program {
	out := make([]program, len(ps))
	for i, p := range ps {
		out[i] = program{p.Name, p.Src}
	}
	return out
}

func microPrograms() []program { return fromWorkloads(workloads.Micro()) }
func specPrograms() []program  { return fromWorkloads(workloads.Spec()) }
func servePages() []program    { return fromPages(workloads.WebServe()) }

// corpus is every workload source of the repository: the micros, the SPEC
// and Phoronix stand-ins, and both forms of the web stack.
func corpus() []program {
	var out []program
	out = append(out, microPrograms()...)
	out = append(out, specPrograms()...)
	out = append(out, fromWorkloads(workloads.Phoronix())...)
	out = append(out, fromPages(workloads.WebStack())...)
	out = append(out, servePages()...)
	return out
}

// cells crosses programs with backends.
func cells(progs []program, bks ...string) []cell {
	out := make([]cell, 0, len(progs)*len(bks))
	for _, p := range progs {
		for _, b := range bks {
			out = append(out, cell{p, b})
		}
	}
	return out
}

// configFor is the compile configuration of a backend column, with DEP on as
// in every evaluation table of the repository.
func configFor(name string) core.Config {
	cfg, err := core.ConfigForName(name)
	if err != nil {
		panic(err) // backends holds registered names only
	}
	cfg.DEP = true
	return cfg
}

// unit is a compiled, predecoded cell, ready to build machines from.
type unit struct {
	cell
	compiled *core.Program
	code     *vm.Code
}

func (u *unit) newMachine() (*vm.Machine, error) {
	return vm.NewShared(u.compiled.IR, u.code, u.compiled.VMConfig())
}

// compile builds c. Untraced it calls core.Compile and Program.Predecoded,
// as every other caller does. Traced it calls the stages one by one, each
// under its own span; TestStagedCompileMatchesCore pins the two paths as
// producing the same IR and statistics.
func compile(c cell, tr *tracer, parent int32) (*unit, error) {
	if tr == nil {
		p, err := core.Compile(c.prog.src, configFor(c.backend))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.prog.name, c.backend, err)
		}
		return &unit{cell: c, compiled: p, code: p.Predecoded()}, nil
	}
	p, err := compileStaged(c, tr, parent)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", c.prog.name, c.backend, err)
	}
	s := tr.begin("vm.predecode", parent, c)
	code := vm.PredecodeWith(p.IR, vm.PredecodeOptions{})
	tr.end(s, 0)
	return &unit{cell: c, compiled: p, code: code}, nil
}

// compileStaged is core.Compile for the configurations configFor returns,
// split at the layer boundaries so each stage gets a span.
func compileStaged(c cell, tr *tracer, parent int32) (*core.Program, error) {
	cfg := configFor(c.backend)
	var bk backend.Backend
	if c.backend != "vanilla" {
		var ok bool
		if bk, ok = backend.Get(c.backend); !ok {
			return nil, fmt.Errorf("backend %q not registered", c.backend)
		}
	}

	s := tr.begin("minic.parse", parent, c)
	f, err := parser.Parse(c.prog.src)
	tr.end(s, int64(len(c.prog.src)))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	s = tr.begin("minic.sema", parent, c)
	err = sema.Check(f)
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	s = tr.begin("irgen.lower", parent, c)
	p, err := irgen.LowerWith(f, irgen.Options{PromoteRegisters: !cfg.NoPromote})
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	tr.setWork(s, irInstrs(p))

	var stats analysis.Stats
	if bk != nil {
		s = tr.begin("analysis.pointsto", parent, c)
		pt := analysis.SolvePointsTo(p)
		tr.end(s, 0)
		s = tr.begin("instrument", parent, c)
		if bk.SafeStack() {
			instrument.SafeStack(p)
		}
		stats = instrument.WithBackend(p, bk, instrument.Opts{PointsTo: pt})
		tr.end(s, int64(stats.Instrumented))
	} else {
		s = tr.begin("analysis.collect", parent, c)
		stats = analysis.Collect(p)
		tr.end(s, 0)
	}
	s = tr.begin("ir.verify", parent, c)
	err = p.Verify()
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("post-instrumentation verify: %w", err)
	}
	return &core.Program{IR: p, Cfg: cfg, Stats: stats}, nil
}

//go:embed expected.json
var expectedJSON []byte

// expectation is a program's reference outcome: its exit code and the
// SHA-256 of its output. expected.json holds one per corpus program,
// recorded only where vanilla, cps, cpi and pac agree (TestExpected).
type expectation struct {
	Exit   int64  `json:"exit"`
	Output string `json:"output_sha256"`
}

func outcomeOf(r *vm.Result) expectation {
	sum := sha256.Sum256([]byte(r.Output))
	return expectation{Exit: r.ExitCode, Output: hex.EncodeToString(sum[:])}
}

func loadExpected() (map[string]expectation, error) {
	var want map[string]expectation
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return want, nil
}

// checker counts the operations a run attempted and those that failed: a
// compile error, a trap other than a normal exit, or an exit code or output
// that differs from the reference.
type checker struct {
	want      map[string]expectation
	attempted int
	failed    int
}

// maxReported bounds the failures described on standard error.
const maxReported = 5

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// record counts one operation on cl and reports whether it succeeded: err
// is its error, and r the run to check, or nil for a compile.
func (c *checker) record(cl cell, r *vm.Result, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%v", err)
		return false
	}
	if r == nil {
		return true
	}
	if r.Trap != vm.TrapExit {
		c.fail("%s/%s: trap %v (%v)", cl.prog.name, cl.backend, r.Trap, r.Err)
		return false
	}
	want, ok := c.want[cl.prog.name]
	if got := outcomeOf(r); !ok || got != want {
		c.fail("%s/%s: outcome %+v, want %+v", cl.prog.name, cl.backend, got, want)
		return false
	}
	return true
}

// irInstrs counts a program's IR instructions.
func irInstrs(p *ir.Program) int64 {
	var n int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Ins))
		}
	}
	return n
}
