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
// Config.Backend is the one protection selector: it names a registered
// pointer-integrity backend (cps, cpi, pac, ...), which fixes both the
// instrumentation (instrument.WithBackend) and the VM enforcer of the same
// name. Protect is a thin alias resolved here and nowhere else:
//
//	Vanilla    — nothing (DEP/ASLR/cookies are separate toggles)
//	SafeStack  — safe stack only (-fstack-protector-safe)
//	CPS        — Backend "cps": safe stack + code-pointer separation (-fcps)
//	CPI        — Backend "cpi": safe stack + full code-pointer integrity (-fcpi)
//	SoftBound  — full spatial memory safety baseline (its own pass, VM
//	             enforcer "softbound")
//	CFI        — coarse-grained control-flow integrity baseline
package core

import (
	"fmt"
	"strings"
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
type Protection int

// Protection levels.
const (
	Vanilla Protection = iota
	SafeStack
	CPS
	CPI
	SoftBound
	CFI
)

var protNames = [...]string{"vanilla", "safestack", "cps", "cpi", "softbound", "cfi"}

// String names the protection level.
func (p Protection) String() string { return protNames[p] }

// ParseProtection converts a name to a Protection.
func ParseProtection(s string) (Protection, error) {
	for i, n := range protNames {
		if n == s {
			return Protection(i), nil
		}
	}
	return 0, fmt.Errorf("unknown protection %q (want one of vanilla, safestack, cps, cpi, softbound, cfi)", s)
}

// Config selects protection and runtime parameters for a compilation.
type Config struct {
	Protect Protection

	// Backend selects the pointer-integrity enforcement backend by
	// registered name ("cps", "cpi", "pac", ...); the VM runs the enforcer
	// of the same name. Empty means derive it from Protect: CPS and CPI
	// map to the safe-region backends of the same name, everything else
	// compiles without a backend. Setting both Backend and a conflicting
	// Protect is an error; Backend "cps"/"cpi" with Protect Vanilla is
	// exactly equivalent to Protect CPS/CPI.
	Backend string

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
	TemporalSafety bool
	// SweepEvery runs the periodic temporal-safety sweep after every
	// SweepEvery-th allocation (0 disables it): live allocations'
	// safe-pointer-store entries are validated against their CETS ids and
	// stale ones dropped. See vm.Config.SweepEvery.
	SweepEvery int64

	// Runtime parameters.
	Seed     int64
	Input    []byte
	MaxSteps int64
	Cost     vm.CostModel
}

// backend resolves the configuration's enforcement backend against the
// registry: Protect CPS/CPI alias the safe-region backends of the same
// name, an explicit Backend must agree with them and composes with no
// other Protect level. Nil means no backend (vanilla, safestack, and the
// softbound/cfi baselines).
func (c Config) backend() (backend.Backend, error) {
	name := c.Backend
	switch {
	case c.Protect == CPS || c.Protect == CPI:
		if name != "" && name != c.Protect.String() {
			return nil, fmt.Errorf("conflicting Protect %s and Backend %q", c.Protect, name)
		}
		name = c.Protect.String()
	case name == "":
		return nil, nil
	case c.Protect != Vanilla:
		return nil, fmt.Errorf("Backend %q cannot compose with Protect %s", name, c.Protect)
	}
	bk, ok := backend.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (registered: %s)",
			name, strings.Join(backend.Sorted(), ", "))
	}
	return bk, nil
}

// Backends returns the registered backend names in registration order —
// the column set of the cross-backend evaluation tables.
func Backends() []string { return backend.Names() }

// ConfigForName maps an evaluation column name — a Protection level or a
// registered backend name — onto its compile Config. Protection names win
// (so "cps"/"cpi" yield the Protect form both halves of the registry agree
// on); backend-only names like "pac" select the backend directly.
func ConfigForName(name string) (Config, error) {
	if p, err := ParseProtection(name); err == nil {
		return Config{Protect: p}, nil
	}
	if _, ok := backend.Get(name); ok {
		return Config{Backend: name}, nil
	}
	return Config{}, fmt.Errorf("unknown protection or backend %q (backends: %s)",
		name, strings.Join(backend.Sorted(), ", "))
}

// Program is a compiled, instrumented program ready to run.
type Program struct {
	IR    *ir.Program
	Cfg   Config
	Stats analysis.Stats

	// pre lazily holds the predecoded form of IR (vm.Predecode), built once
	// and shared by every machine of this program — including value copies
	// of Program (RunWithInput) and the parallel harness fan-out, whose
	// CompileCache shares the *Program itself.
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

	bk, err := cfg.backend()
	if err != nil {
		return nil, err
	}

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
			return nil, fmt.Errorf("unknown protection %d", cfg.Protect)
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
	opt := vm.PredecodeOptions{NoBlockCompile: p.Cfg.NoBlockCompile}
	if p.Cfg.AuditSensitive {
		// The audit checks live in the general load/store paths only:
		// AuditHooks forces them (and disables block compilation, whose
		// executors inline memory accesses) so no access can bypass the
		// oracle.
		opt.AuditHooks = true
	}
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
	c := vm.Config{
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
		SweepEvery:     p.Cfg.SweepEvery,
		AuditSensitive: p.Cfg.AuditSensitive,
		Seed:           p.Cfg.Seed,
		Input:          p.Cfg.Input,
		MaxSteps:       p.Cfg.MaxSteps,
		Cost:           p.Cfg.Cost,
		PacBits:        p.Cfg.PacBits,
		SafeStack:      p.Cfg.Protect == SafeStack,
		CFI:            p.Cfg.Protect == CFI,
	}
	// The resolved backend names the VM's enforcer (Compile already
	// validated it); SoftBound's enforcer has no compile-side backend.
	if bk, _ := p.Cfg.backend(); bk != nil {
		c.Backend = bk.Name()
		c.SafeStack = bk.SafeStack()
	} else if p.Cfg.Protect == SoftBound {
		c.Backend = "softbound"
	}
	return c
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
