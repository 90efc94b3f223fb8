package workloads

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// Cycles is a linear function of the price vector vm.CostModel with no
// constant term: every charge is one CostModel field times an event count.
// The tests below pin that, which is what makes an exact per-price cycle
// ledger (events × price, summing to Cycles) possible.

// costConfigs are the configurations the homogeneity oracle covers: every
// protection, the two other safe pointer store organisations, the temporal
// id checks, SFI isolation and the dual-store debug mode.
var costConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"vanilla", core.Config{Protect: core.Vanilla}},
	{"safestack", core.Config{Protect: core.SafeStack}},
	{"cps", core.Config{Protect: core.CPS}},
	{"cpi", core.Config{Protect: core.CPI}},
	{"softbound", core.Config{Protect: core.SoftBound}},
	{"cfi", core.Config{Protect: core.CFI}},
	{"pac", core.Config{Protect: core.PAC}},
	{"cpi-twolevel", core.Config{Protect: core.CPI, SPS: "twolevel"}},
	{"cpi-hash", core.Config{Protect: core.CPI, SPS: "hash"}},
	{"cpi-temporal", core.Config{Protect: core.CPI, TemporalSafety: true}},
	{"cpi-sfi", core.Config{Protect: core.CPI, Isolation: vm.IsoSFI}},
	{"cpi-dualstore", core.Config{Protect: core.CPI, DebugDualStore: true}},
}

// costSources returns every workload of the Micro, Spec, Phoronix and
// WebStack sets by name.
func costSources() []Workload {
	ws := append(append(Micro(), Spec()...), Phoronix()...)
	for _, p := range WebStack() {
		ws = append(ws, Workload{Name: p.Name, Src: p.Src})
	}
	return ws
}

// withCost runs main() of prog on a fresh machine charging cost.
func withCost(t *testing.T, prog *core.Program, cost vm.CostModel) *vm.Result {
	t.Helper()
	cfg := prog.VMConfig()
	cfg.Cost = cost
	m, err := vm.NewShared(prog.IR, prog.Predecoded(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run("main")
}

// priceFields returns the settable fields of c, one per price. Reflection
// covers a price added to CostModel later without touching these tests.
func priceFields(c *vm.CostModel) []reflect.Value {
	v := reflect.ValueOf(c).Elem()
	fs := make([]reflect.Value, v.NumField())
	for i := range fs {
		fs[i] = v.Field(i)
	}
	return fs
}

// TestCyclesHomogeneousInCostModel is the homogeneity oracle: doubling
// every CostModel price doubles Cycles exactly and changes nothing else a
// run observes.
func TestCyclesHomogeneousInCostModel(t *testing.T) {
	double := vm.DefaultCosts()
	for _, f := range priceFields(&double) {
		f.SetInt(2 * f.Int())
	}
	for _, w := range costSources() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range costConfigs {
				cfg := c.cfg
				cfg.DEP = true
				prog, err := core.Compile(w.Src, cfg)
				if err != nil {
					t.Fatalf("%s: compile: %v", c.name, err)
				}
				base, twice := withCost(t, prog, vm.DefaultCosts()), withCost(t, prog, double)
				if base.Trap != vm.TrapExit {
					t.Fatalf("%s: trap %v (%v)", c.name, base.Trap, base.Err)
				}
				if twice.Cycles != 2*base.Cycles {
					t.Errorf("%s: Cycles %d at doubled prices, want 2×%d = %d (off by %d)",
						c.name, twice.Cycles, base.Cycles, 2*base.Cycles, 2*base.Cycles-twice.Cycles)
				}
				if twice.Steps != base.Steps || twice.Trap != base.Trap ||
					twice.ExitCode != base.ExitCode || twice.Output != base.Output {
					t.Errorf("%s: doubled prices changed the run: steps %d/%d trap %v/%v exit %d/%d",
						c.name, base.Steps, twice.Steps, base.Trap, twice.Trap, base.ExitCode, twice.ExitCode)
				}
			}
		})
	}
}

// TestCycleLedgerSumsToCycles reads the per-price ledger out by
// perturbation: raising one price by 1 raises Cycles by that price's event
// count. Every count is non-negative, and the counts times the prices sum
// to Cycles exactly.
func TestCycleLedgerSumsToCycles(t *testing.T) {
	for _, name := range []string{"400.perlbench", "403.gcc"} {
		w, ok := ByName(Spec(), name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, prot := range []core.Protection{core.CPI, core.PAC} {
			w, prot := w, prot
			t.Run(name+"/"+prot.String(), func(t *testing.T) {
				t.Parallel()
				prog, err := core.Compile(w.Src, core.Config{Protect: prot, DEP: true})
				if err != nil {
					t.Fatal(err)
				}
				base := vm.DefaultCosts()
				cycles := withCost(t, prog, base).Cycles
				var sum int64
				for i, f := range priceFields(&base) {
					price := f.Int()
					if price == 0 {
						continue
					}
					bumped := base
					priceFields(&bumped)[i].SetInt(price + 1)
					events := withCost(t, prog, bumped).Cycles - cycles
					if events < 0 {
						t.Errorf("%s: %d events", reflect.TypeOf(base).Field(i).Name, events)
					}
					sum += events * price
				}
				if sum != cycles {
					t.Errorf("ledger sums to %d, Cycles is %d (off by %d)", sum, cycles, cycles-sum)
				}
			})
		}
	}
}

// safeIntrSrc copies a global table of code pointers with memcpy, calls
// through the copy, clears the original with memset and calls through it.
// The table is 4 × 2 words, so the safe memcpy covers 8 words and the safe
// memset 8 more.
const safeIntrSrc = `
struct ent { int tag; int (*fn)(int); };
struct ent tab[4];
struct ent cp[4];
int twice(int x) { return 2 * x; }
int inc(int x) { return x + 1; }
int main(void) {
	for (int i = 0; i < 4; i++) {
		tab[i].tag = i;
		if (i % 2) tab[i].fn = inc; else tab[i].fn = twice;
	}
	memcpy(cp, tab, sizeof(tab));
	printf("%d %d\n", cp[3].tag, cp[3].fn(20));
	memset(tab, 0, sizeof(tab));
	printf("%d\n", tab[1].fn(1));
	return 0;
}
`

// TestSafeIntrinsicCycles pins the safe memcpy/memset path, which no
// workload runs: output, trap and exact Cycles per protection and store
// organisation. Under cps and cpi every covered word pays SafeIntrWord
// once, so raising that price by 1 raises Cycles by the 8 words copied
// plus the 8 cleared.
func TestSafeIntrinsicCycles(t *testing.T) {
	const copiedPlusCleared = 16
	type cell struct {
		trap   vm.TrapKind
		out    string
		cycles int64
	}
	cps, cpi, pac := vm.TrapCPSViolation, vm.TrapCPIViolation, vm.TrapPacViolation
	want := map[string]cell{
		"cps/array":    {cps, "3 21\n", 279},
		"cps/twolevel": {cps, "3 21\n", 369},
		"cps/hash":     {cps, "3 21\n", 519},
		"cpi/array":    {cpi, "3 21\n", 291},
		"cpi/twolevel": {cpi, "3 21\n", 381},
		"cpi/hash":     {cpi, "3 21\n", 531},
		"pac/array":    {pac, "3 21\n", 203},
		"pac/twolevel": {pac, "3 21\n", 203},
		"pac/hash":     {pac, "3 21\n", 203},
	}
	for _, prot := range []core.Protection{core.CPS, core.CPI, core.PAC} {
		for _, org := range []string{"array", "twolevel", "hash"} {
			name := prot.String() + "/" + org
			prog, err := core.Compile(safeIntrSrc, core.Config{Protect: prot, DEP: true, SPS: org})
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			r := withCost(t, prog, vm.DefaultCosts())
			got := cell{r.Trap, r.Output, r.Cycles}
			if got != want[name] {
				t.Errorf("%s: got %+v (%v), want %+v", name, got, r.Err, want[name])
			}
			if prot == core.PAC {
				continue
			}
			bumped := vm.DefaultCosts()
			bumped.SafeIntrWord++
			if d := withCost(t, prog, bumped).Cycles - r.Cycles; d != copiedPlusCleared {
				t.Errorf("%s: SafeIntrWord+1 raised Cycles by %d, want %d", name, d, copiedPlusCleared)
			}
		}
	}
}
