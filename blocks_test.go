package repro

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Block-compilation equivalence property tests: the predecode block
// compiler (internal/vm/blocks.go) turns straight-line traces into single
// compiled segments with their own inlined executors, and it must be
// invisible to everything except wall-clock time. These tests run every
// bundled micro, SPEC stand-in and webstack workload under the baseline
// configuration and
// the cps/cpi/pac backends twice, once on the default predecoding and once
// with NoBlockCompile (plain per-instruction dispatch), and require identical
// Output, Cycles, Steps, exit codes and trap details. Dispatches is
// deliberately NOT compared: absorbing dispatch round trips is the whole
// point of the stage, and Result.BlockFrac reports the difference.
//
// A truncated-budget sweep additionally forces the step budget to expire
// at many different points, so a budget trap landing in the middle of a
// segment — including between the constituents of a merged pair op — must
// report the same step count and PC as the plain dispatch loop.

// equivConfigs are the protection configurations the equivalence must
// hold under: segments inline flagged-load/store fallbacks and maintain
// register metadata only where the program can consume it and the machine
// arms a consumer (runSegment's tm). The unpromoted cpi row is RIPE's
// victim configuration: its direct calls pass spilled variables as register
// temporaries, so they take the segment call shape and extend traces into
// callees as well. The last metaTermRows rows — safestack, cfi, softbound,
// and cpi with every other runtime check armed — cover each configuration
// term the metadata predicate leaves out: safestack and cfi machines skip
// metadata on every program.
func equivConfigs() []core.Config {
	return []core.Config{
		{DEP: true},
		{Protect: core.CPS, DEP: true},
		{Protect: core.CPI, DEP: true},
		{Protect: core.PAC, DEP: true},
		{Protect: core.CPI, DEP: true, NoPromote: true},
		{Protect: core.SafeStack, DEP: true},
		{Protect: core.CFI, DEP: true},
		{Protect: core.SoftBound, DEP: true},
		{Protect: core.CPI, DEP: true, TemporalSafety: true, PtrMangle: true, Fortify: true},
	}
}

// metaTermRows counts the metadata-term rows at the end of equivConfigs.
// TestBlockCompileEquivalence runs them over every workload but the
// web-stack pages, which under them would push the root package's
// race-detector run past CI's 25-minute budget.
const metaTermRows = 4

// cfgName labels an equivConfigs entry in failure messages.
func cfgName(cfg core.Config) string {
	name := cfg.Protect.String()
	if cfg.NoPromote {
		name += "/nopromote"
	}
	if cfg.TemporalSafety {
		name += "/temporal"
	}
	if cfg.PtrMangle {
		name += "/mangle"
	}
	if cfg.Fortify {
		name += "/fortify"
	}
	return name
}

// equivWorkloads is the bundled workload set the property runs over, plus
// the metadata-consumer programs. The SPEC stand-ins are where the
// global-indexing and folded-branch segment shapes fire most.
func equivWorkloads() []workloads.Workload {
	set := append([]workloads.Workload{}, workloads.Micro()...)
	set = append(set, workloads.Spec()...)
	for _, p := range workloads.WebStack() {
		set = append(set, workloads.Workload{Name: p.Name, Src: p.Src})
	}
	return append(set, metaConsumerWorkloads()...)
}

// metaConsumerWorkloads are small programs in which register metadata
// reaches its consumer only through segment-executed Movs, casts or GEPs,
// so a predicate or a liveness set that missed the path would let the
// segments drop it and make blocks differ from noblocks. The first three
// cover the kinds of instruction that make vm.Code.ReadsMeta true, each
// with no consumer of any other kind:
//   - consumer.icall: promoted function-pointer copies (join Movs) feed an
//     indirect call, which cps, cpi and pac reject without code provenance;
//   - consumer.fptrstore: a joined function pointer is stored through a
//     GEP'd pointer by a flagged store. Without metadata, cpi's bounds
//     check on the pointer fails, and cps drops the safe-store entry of
//     the value, so the flagged reload reads 0;
//   - consumer.fortify: memcpy through a GEP into a 24-byte global, which
//     overruns it at i == 17 and Fortify stops (wantTrap).
//
// The other four each cover one channel of the per-register liveness
// (vm.FuncCode.MetaLive), through which a function pointer reaches an
// indirect call or a bounds check:
//   - consumer.retptr: a join Mov writes the register a function returns;
//   - consumer.argptr: a GEP writes a call argument that the callee
//     dereferences by a flagged load (cpi checks its bounds);
//   - consumer.castptr: a function pointer is cast to int and back;
//   - consumer.safeslot: a joined function pointer is stored to a
//     safe-stack local and reloaded, its metadata passing through the
//     safe stack's shadow.
func metaConsumerWorkloads() []workloads.Workload {
	return []workloads.Workload{
		{Name: "consumer.icall", Src: srcConsumerICall},
		{Name: "consumer.fptrstore", Src: srcConsumerFptrStore},
		{Name: "consumer.fortify", Src: srcConsumerFortify},
		{Name: "consumer.retptr", Src: srcConsumerRetPtr},
		{Name: "consumer.argptr", Src: srcConsumerArgPtr},
		{Name: "consumer.castptr", Src: srcConsumerCastPtr},
		{Name: "consumer.safeslot", Src: srcConsumerSafeSlot},
	}
}

const srcConsumerICall = `
int inc(int x) { return x + 1; }
int dbl(int x) { return x + x; }

int main() {
	int (*f)(int) = inc;
	int (*h)(int) = dbl;
	int (*g)(int);
	int i;
	int acc = 0;
	for (i = 0; i < 50; i++) {
		if (i & 1) {
			g = f;
		} else {
			g = h;
		}
		acc = g(acc) % 1000;
	}
	return acc % 251;
}
`

const srcConsumerFptrStore = `
int inc(int x) { return x + 1; }
int dbl(int x) { return x + x; }

int (*slots[4])(int);

int main() {
	int (*f)(int) = inc;
	int (*h)(int) = dbl;
	int (*g)(int);
	int (**pp)(int);
	int i;
	int acc = 0;
	for (i = 0; i < 40; i++) {
		if (i & 1) {
			g = f;
		} else {
			g = h;
		}
		pp = &slots[i & 3];
		*pp = g;
		if (*pp == g) {
			acc = acc + 1;
		}
	}
	return acc;
}
`

const srcConsumerFortify = `
char small[24];
char big[64];

int main() {
	char *p;
	int i;
	for (i = 0; i < 20; i++) {
		p = small + i;
		memcpy(p, big, 8);
	}
	return 0;
}
`

const srcConsumerRetPtr = `
int inc(int x) { return x + 1; }
int dbl(int x) { return x + x; }

void *pick(int i) {
	void *a = (void *)inc;
	void *b = (void *)dbl;
	void *g;
	if (i & 1) {
		g = a;
	} else {
		g = b;
	}
	return g;
}

int main() {
	int (*f)(int);
	int i;
	int acc = 0;
	for (i = 0; i < 50; i++) {
		f = (int (*)(int))pick(i);
		acc = f(acc) % 1000;
	}
	return acc % 251;
}
`

const srcConsumerArgPtr = `
int inc(int x) { return x + 1; }
int dbl(int x) { return x + x; }

int (*slots[4])(int);

int call(int (**pp)(int), int x) {
	return (*pp)(x);
}

int main() {
	int i;
	int acc = 0;
	for (i = 0; i < 4; i++) {
		if (i & 1) {
			slots[i] = inc;
		} else {
			slots[i] = dbl;
		}
	}
	for (i = 0; i < 50; i++) {
		acc = call(&slots[i & 3], acc) % 1000;
	}
	return acc % 251;
}
`

const srcConsumerCastPtr = `
int inc(int x) { return x + 1; }
int dbl(int x) { return x + x; }

int main() {
	int (*f)(int) = inc;
	int (*h)(int) = dbl;
	int (*g)(int);
	int v;
	int i;
	int acc = 0;
	for (i = 0; i < 50; i++) {
		if (i & 1) {
			v = (int)f;
		} else {
			v = (int)h;
		}
		g = (int (*)(int))v;
		acc = g(acc) % 1000;
	}
	return acc % 251;
}
`

const srcConsumerSafeSlot = `
int inc(int x) { return x + 1; }
int dbl(int x) { return x + x; }

int main() {
	int (*f)(int) = inc;
	int (*h)(int) = dbl;
	int (*g)(int);
	int (*saved[2])(int);
	int i;
	int acc = 0;
	for (i = 0; i < 50; i++) {
		if (i & 1) {
			g = f;
		} else {
			g = h;
		}
		saved[1] = g;
		acc = saved[1](acc) % 1000;
	}
	return acc % 251;
}
`

// wantTrap is how a workload must end under cfg: every program exits,
// except that Fortify stops consumer.fortify's overrun.
func wantTrap(w workloads.Workload, cfg core.Config) vm.TrapKind {
	if w.Name == "consumer.fortify" && cfg.Fortify {
		return vm.TrapFortify
	}
	return vm.TrapExit
}

// runBlocksBoth executes one compiled program on the block-compiled and
// block-free streams with the given step budget (0 = default).
func runBlocksBoth(t *testing.T, prog *core.Program, maxSteps int64) (blocks, noblocks *vm.Result) {
	t.Helper()
	cfg := prog.VMConfig()
	cfg.MaxSteps = maxSteps

	blockCode := vm.PredecodeWith(prog.IR, vm.PredecodeOptions{})
	plainCode := vm.PredecodeWith(prog.IR, vm.PredecodeOptions{NoBlockCompile: true})
	if plainCode.BlockSegs != 0 {
		t.Fatalf("NoBlockCompile predecoding reports %d segments", plainCode.BlockSegs)
	}

	mb, err := vm.NewShared(prog.IR, blockCode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := vm.NewShared(prog.IR, plainCode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mb.Run("main"), mp.Run("main")
}

// compareBlockResults asserts the observable surface matches. Dispatches
// is excluded by design (see the file comment).
func compareBlockResults(t *testing.T, name string, blocks, noblocks *vm.Result) {
	t.Helper()
	if blocks.Trap != noblocks.Trap {
		t.Errorf("%s: trap blocks=%v noblocks=%v", name, blocks.Trap, noblocks.Trap)
	}
	if blocks.Cycles != noblocks.Cycles {
		t.Errorf("%s: cycles blocks=%d noblocks=%d", name, blocks.Cycles, noblocks.Cycles)
	}
	if blocks.Steps != noblocks.Steps {
		t.Errorf("%s: steps blocks=%d noblocks=%d", name, blocks.Steps, noblocks.Steps)
	}
	if blocks.ExitCode != noblocks.ExitCode {
		t.Errorf("%s: exit blocks=%d noblocks=%d", name, blocks.ExitCode, noblocks.ExitCode)
	}
	if blocks.Output != noblocks.Output {
		t.Errorf("%s: output differs (blocks %d bytes, noblocks %d bytes)",
			name, len(blocks.Output), len(noblocks.Output))
	}
	if (blocks.Err == nil) != (noblocks.Err == nil) {
		t.Errorf("%s: error presence differs", name)
	} else if blocks.Err != nil {
		if blocks.Err.Kind != noblocks.Err.Kind || blocks.Err.PC != noblocks.Err.PC {
			t.Errorf("%s: trap detail blocks=%v@%s noblocks=%v@%s",
				name, blocks.Err.Kind, blocks.Err.PC, noblocks.Err.Kind, noblocks.Err.PC)
		}
	}
}

// TestBlockCompileEquivalence runs every bundled workload to its end
// under the equivConfigs configurations, block-compiled vs not.
func TestBlockCompileEquivalence(t *testing.T) {
	web := map[string]bool{}
	for _, p := range workloads.WebStack() {
		web[p.Name] = true
	}
	for _, w := range equivWorkloads() {
		cfgs := equivConfigs()
		if web[w.Name] {
			cfgs = cfgs[:len(cfgs)-metaTermRows]
		}
		for _, cfg := range cfgs {
			prog, err := core.Compile(w.Src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if code := prog.Predecoded(); code.BlockSegs == 0 {
				t.Errorf("%s: default predecoding built no segments — property test would be vacuous", w.Name)
			}
			name := w.Name + "/" + cfgName(cfg)
			blocks, noblocks := runBlocksBoth(t, prog, 0)
			compareBlockResults(t, name, blocks, noblocks)
			if want := wantTrap(w, cfg); blocks.Trap != want {
				t.Errorf("%s: workload ended with %v, want %v", name, blocks.Trap, want)
			}
			// Every step runs inside a segment: the per-instruction
			// handlers are the reference tier, never the hot one.
			if blocks.BlockSteps != blocks.Steps {
				t.Errorf("%s: %d of %d steps executed inside segments; want all",
					name, blocks.BlockSteps, blocks.Steps)
			}
		}
	}
}

// TestFortifyTermEquivalence runs consumer.fortify on a vanilla machine
// with Fortify armed. There Fortify is the only machine-level metadata
// consumer, so only the predicate's Fortify term keeps the GEP's metadata
// for fortifyLimit; every equivConfigs row with Fortify also has an
// enforcer.
func TestFortifyTermEquivalence(t *testing.T) {
	cfg := core.Config{DEP: true, Fortify: true}
	for _, w := range metaConsumerWorkloads() {
		prog, err := core.Compile(w.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		name := w.Name + "/" + cfgName(cfg)
		blocks, noblocks := runBlocksBoth(t, prog, 0)
		compareBlockResults(t, name, blocks, noblocks)
		if want := wantTrap(w, cfg); blocks.Trap != want {
			t.Errorf("%s: workload ended with %v, want %v", name, blocks.Trap, want)
		}
	}
}

// TestReadsMetaPerProgram pins which bundled programs let the segments
// skip register metadata altogether under cps, cpi and pac: exactly the
// four micros, which have no flagged access, indirect call or intrinsic
// call. In every SPEC, Phoronix and web-stack program, and in each
// metadata-consumer program, the segments maintain it, but only for the
// registers some instruction can read (vm.FuncCode.MetaLive).
func TestReadsMetaPerProgram(t *testing.T) {
	set := append([]workloads.Workload{}, workloads.Micro()...)
	set = append(set, workloads.Spec()...)
	set = append(set, workloads.Phoronix()...)
	for _, p := range append(workloads.WebStack(), workloads.WebServe()...) {
		set = append(set, workloads.Workload{Name: p.Name, Src: p.Src})
	}
	set = append(set, metaConsumerWorkloads()...)
	for _, w := range set {
		want := !strings.HasPrefix(w.Name, "micro.")
		for _, p := range []core.Protection{core.CPS, core.CPI, core.PAC} {
			prog, err := core.Compile(w.Src, core.Config{Protect: p, DEP: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, p, err)
			}
			if got := prog.Predecoded().ReadsMeta; got != want {
				t.Errorf("%s/%v: ReadsMeta = %v, want %v", w.Name, p, got, want)
			}
		}
	}
}

// TestBlockCompileEquivalenceTruncated sweeps tiny step budgets so
// execution is cut off at many different instruction boundaries — at
// segment entry, mid-trace, between pair-op constituents, and inside the
// inlined call/return paths. TrapMaxSteps must be bit-identical (steps,
// cycles, reported PC) with block compilation on and off.
func TestBlockCompileEquivalenceTruncated(t *testing.T) {
	// fib is call-heavy (inlined call/return fast paths); sieve is
	// branch-dense (trace-extending conditional branches and merged
	// compare+branch pairs); qsort indexes a global array (skGEPGR) and
	// folds loop-exit branches. Between them every segment executor runs.
	for _, wn := range []string{"micro.fib", "micro.sieve", "micro.qsort"} {
		var w = equivWorkloads()[0]
		for _, cand := range equivWorkloads() {
			if cand.Name == wn {
				w = cand
			}
		}
		for _, cfg := range equivConfigs() {
			prog, err := core.Compile(w.Src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for budget := int64(1); budget <= 300; budget++ {
				blocks, noblocks := runBlocksBoth(t, prog, budget)
				if blocks.Trap != vm.TrapMaxSteps {
					t.Fatalf("budget %d: expected TrapMaxSteps, got %v", budget, blocks.Trap)
				}
				compareBlockResults(t, w.Name, blocks, noblocks)
				if t.Failed() {
					t.Fatalf("first divergence at budget %d under %s", budget, cfgName(cfg))
				}
			}
		}
	}
}

// TestPInsSize pins the predecoded instruction size. The block compiler's
// segOp executors read their op's PIns slot on their slow paths and the
// dispatch loop strides over a []PIns; growing the struct degrades the
// cache behavior both were tuned against, so a size change must be a
// deliberate decision, not a side effect of adding a field.
func TestPInsSize(t *testing.T) {
	if got := unsafe.Sizeof(vm.PIns{}); got != 160 {
		t.Errorf("unsafe.Sizeof(vm.PIns) = %d, want 160", got)
	}
}

// TestIRInstrSize pins the IR instruction at 160 bytes, its narrow fields
// sharing the first word: irgen stages every block in a buffer of them and
// each block keeps an exact-size array, so a size change is paid on every
// instruction of every compile.
func TestIRInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(ir.Instr{}); got != 160 {
		t.Errorf("unsafe.Sizeof(ir.Instr) = %d, want 160", got)
	}
}
