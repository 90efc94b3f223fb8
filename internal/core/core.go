// Package core is the front door of the Levee reproduction: it compiles
// mini-C source with a selected protection configuration and produces
// runnable programs, mirroring the paper's compiler flags (-fcpi, -fcps,
// -fstack-protector-safe, §4).
//
// Typical use:
//
//	prog, err := core.Compile(src, core.Config{Protect: core.CPI})
//	res, err := prog.Run()
//
// Config.Protect is the one protection selector (backend.Protection, aliased
// here). It fixes both the instrumentation — the pointer-integrity backend
// of cps, cpi and pac through instrument.WithBackend, or the protection's
// own pass — and, through VMConfig, the VM's enforcer, safe stack and CFI:
//
//	Vanilla    — nothing (DEP/ASLR/cookies are separate toggles)
//	SafeStack  — safe stack only (-fstack-protector-safe)
//	CPS        — safe stack + code-pointer separation (-fcps)
//	CPI        — safe stack + full code-pointer integrity (-fcpi)
//	SoftBound  — full spatial memory safety baseline
//	CFI        — coarse-grained control-flow integrity baseline
//	PAC        — safe stack + code pointers signed in place with a keyed MAC
package core

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/instrument"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/sema"
	"repro/internal/vm"
)

// Protection selects the compiled-in defense.
type Protection = backend.Protection

// Protection levels.
const (
	Vanilla   = backend.Vanilla
	SafeStack = backend.SafeStack
	CPS       = backend.CPS
	CPI       = backend.CPI
	SoftBound = backend.SoftBound
	CFI       = backend.CFI
	PAC       = backend.PAC
)

// Config selects protection and runtime parameters for a compilation.
type Config struct {
	// Protect selects the defense: the instrumentation passes here and
	// the VM's enforcer, safe stack and CFI (vm.Config.Protect).
	Protect Protection

	// PacBits is the modeled MAC width of the pac backend (bits 47..62 of
	// the signed pointer word hold the MAC field). 0 means the default 16;
	// smaller widths exist for the forgery-probability tests. Ignored by
	// other backends.
	PacBits int

	// NoPromote disables the irgen register promotion pass (mem2reg) and
	// compiles with the spill-everything baseline lowering. Promotion is
	// the default; the unpromoted form exists for the differential
	// promotion-equivalence suite, for the preserved unpromoted golden
	// tables, and for the RIPE harness, whose attack forms assume the
	// victim code pointer is memory-resident (see ripe.Run).
	NoPromote bool

	// SensitiveStructs lists struct tags to protect as sensitive data in
	// addition to code pointers (§3.2.1's struct ucred example; CPI only).
	// Annotated compilations skip points-to pruning entirely: the solver
	// does not model annotation sensitivity, so the type classifier is the
	// sound classification there.
	SensitiveStructs []string

	// NoPointsTo disables the whole-program points-to sensitivity analysis
	// and compiles CPS/CPI with the local type-based classification alone.
	// Pruning is the default; this switch exists for differential testing
	// (pruned-vs-unpruned behavior and Table 2 accuracy deltas) and as an
	// escape hatch.
	NoPointsTo bool

	// NoBlockCompile disables the predecode block-compilation stage
	// (vm/blocks.go): no basic block or straight-line trace executes as a
	// single compiled segment. Block compilation is the default; this
	// switch exists for the block differential suite and for paired A/B
	// throughput runs (BenchmarkInterpreterThroughput's vanilla-noblocks
	// cells).
	NoBlockCompile bool

	// AuditSensitive enables the dynamic soundness oracle for the static
	// classification: the VM tracks code-pointer provenance at runtime and
	// traps (vm.TrapAuditSensitive) if a value with code provenance is
	// ever loaded from or stored to memory through an uninstrumented
	// operation. Audit machines route every load/store through the general
	// handlers and skip block compilation, so they run slower; both are
	// cycle-exact, so a run the oracle does not trap reports the same
	// Cycles and Steps as a normal run.
	AuditSensitive bool

	// System-level defenses, composable with any Protect level (the RIPE
	// baselines toggle these).
	DEP          bool
	ASLR         bool
	PIE          bool
	StackCookies bool
	Fortify      bool
	PtrMangle    bool

	// Safe-region parameters.
	SPS            string // "array" (default), "twolevel", "hash"
	Isolation      vm.IsolationMode
	DebugDualStore bool
	TemporalSafety bool // cpi and softbound only; see vm.Config

	// Runtime parameters.
	Seed     int64
	Input    []byte
	MaxSteps int64
	Cost     vm.CostModel
}

// ConfigForName maps an evaluation column name — a protection name such
// as "cpi" or "pac" — onto its compile Config.
func ConfigForName(name string) (Config, error) {
	p, err := backend.ParseProtection(name)
	if err != nil {
		return Config{}, err
	}
	return Config{Protect: p}, nil
}

// Program is a compiled, instrumented program ready to run.
type Program struct {
	IR    *ir.Program
	Cfg   Config
	Stats analysis.Stats

	// pre lazily holds the predecoded form of IR (vm.Predecode), built once
	// and shared by every machine of this program — including value copies
	// of Program (RunWithInput).
	pre *predecodeCell
}

// predecodeCell is shared by pointer so Program value copies reuse the same
// predecode result (and so Program stays copyable: the sync.Once lives
// behind the pointer).
type predecodeCell struct {
	once sync.Once
	code *vm.Code
}

// Compile parses, checks, lowers, and instruments src per cfg.
func Compile(src string, cfg Config) (*Program, error) {
	f, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := sema.Check(f); err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	p, err := irgen.LowerWith(f, irgen.Options{PromoteRegisters: !cfg.NoPromote})
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}

	bk := cfg.Protect.Backend()

	// Whole-program sensitivity propagation (points-to pruning) is on by
	// default for every backend compilation (the classification front is
	// backend-independent). Annotated-struct compilations fall back to the
	// type classifier: annotation sensitivity is outside the solver's
	// object model, and the paper treats annotations as always-protected.
	var pt *analysis.PointsTo
	if bk != nil && !cfg.NoPointsTo && len(cfg.SensitiveStructs) == 0 {
		pt = analysis.SolvePointsTo(p)
	}

	var stats analysis.Stats
	switch {
	case bk != nil:
		if bk.SafeStack() {
			instrument.SafeStack(p)
		}
		stats = instrument.WithBackend(p, bk, instrument.Opts{
			SensitiveStructs: cfg.SensitiveStructs, PointsTo: pt,
		})
	default:
		switch cfg.Protect {
		case Vanilla:
			stats = analysis.Collect(p)
		case SafeStack:
			instrument.SafeStack(p)
			stats = analysis.Collect(p)
		case SoftBound:
			stats = instrument.SoftBound(p)
		case CFI:
			instrument.CFI(p)
			stats = analysis.Collect(p)
		default:
			return nil, fmt.Errorf("unknown protection %v", cfg.Protect)
		}
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("post-instrumentation verify: %w", err)
	}
	return &Program{IR: p, Cfg: cfg, Stats: stats, pre: &predecodeCell{}}, nil
}

// Predecoded returns the execution-ready form of the program, predecoding
// on first use. It is safe for concurrent use; all machines of this program
// share one result.
func (p *Program) Predecoded() *vm.Code {
	// The audit checks live in the general load/store paths only, which
	// AuditHooks forces (vm.NewShared refuses to audit code without them).
	opt := vm.PredecodeOptions{NoBlockCompile: p.Cfg.NoBlockCompile, AuditHooks: p.Cfg.AuditSensitive}
	if p.pre == nil {
		// Program built by hand rather than Compile: predecode unshared.
		return vm.PredecodeWith(p.IR, opt)
	}
	p.pre.once.Do(func() { p.pre.code = vm.PredecodeWith(p.IR, opt) })
	return p.pre.code
}

// VMConfig derives the runtime machine configuration from the compile
// configuration. Exported so tests can build machines around alternative
// predecodings (e.g. vm.PredecodeWith with NoBlockCompile) of the same
// compiled program.
func (p *Program) VMConfig() vm.Config {
	return vm.Config{
		DEP:            p.Cfg.DEP,
		ASLR:           p.Cfg.ASLR,
		PIE:            p.Cfg.PIE,
		StackCookies:   p.Cfg.StackCookies,
		Fortify:        p.Cfg.Fortify,
		PtrMangle:      p.Cfg.PtrMangle,
		SPS:            p.Cfg.SPS,
		Isolation:      p.Cfg.Isolation,
		DebugDualStore: p.Cfg.DebugDualStore,
		TemporalSafety: p.Cfg.TemporalSafety,
		AuditSensitive: p.Cfg.AuditSensitive,
		Seed:           p.Cfg.Seed,
		Input:          p.Cfg.Input,
		MaxSteps:       p.Cfg.MaxSteps,
		Cost:           p.Cfg.Cost,
		PacBits:        p.Cfg.PacBits,
		Protect:        p.Cfg.Protect,
	}
}

// NewMachine builds a fresh machine instance (one per run). All machines
// share the program's predecoded instruction streams.
func (p *Program) NewMachine() (*vm.Machine, error) {
	return vm.NewShared(p.IR, p.Predecoded(), p.VMConfig())
}

// NewPool builds a machine pool for request serving: machines are recycled
// via Reset between runs instead of rebuilt, all sharing the program's
// predecoded instruction streams (see vm.Pool).
func (p *Program) NewPool() *vm.Pool {
	return vm.NewPool(p.IR, p.Predecoded(), p.VMConfig())
}

// Run executes main() on a fresh machine.
func (p *Program) Run() (*vm.Result, error) {
	m, err := p.NewMachine()
	if err != nil {
		return nil, err
	}
	return m.Run("main"), nil
}

// RunWithInput executes main() with the given attacker input.
func (p *Program) RunWithInput(input []byte) (*vm.Result, error) {
	cp := *p
	cp.Cfg.Input = input
	return cp.Run()
}
