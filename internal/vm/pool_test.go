package vm

import "testing"

// TestServeContainsPanic plants a pooled machine whose hook panics mid-run:
// Serve must turn the panic into a TrapInternal result instead of crashing
// the process, drop the machine rather than recycle it, and serve the next
// request correctly on a freshly constructed machine.
func TestServeContainsPanic(t *testing.T) {
	p := compile(t, `
int f(int x) { return x * 2 + 1; }
int main(void) { return f(20); }`)
	pl := NewPool(p, Predecode(p), Config{})
	bad, err := pl.Get()
	if err != nil {
		t.Fatal(err)
	}
	if !bad.SetHook("f", func(*Machine) { panic("hook failure") }) {
		t.Fatal("no function f to hook")
	}
	pl.free = append(pl.free, bad) // Put would Reset the hook away

	r, err := pl.Serve("main")
	if err != nil {
		t.Fatal(err)
	}
	if r.Trap != TrapInternal || r.Err == nil || r.Err.Kind != TrapInternal {
		t.Fatalf("panicking request: trap %v (%v), want %v", r.Trap, r.Err, TrapInternal)
	}
	if len(pl.free) != 0 {
		t.Fatalf("the panicked machine went back to the pool (%d idle)", len(pl.free))
	}

	r, err = pl.Serve("main")
	if err != nil {
		t.Fatal(err)
	}
	if r.Trap != TrapExit || r.ExitCode != 41 {
		t.Fatalf("next request: %v exit %d (%v), want exit 41", r.Trap, r.ExitCode, r.Err)
	}
	if reuses, news := pl.Stats(); reuses != 1 || news != 2 {
		t.Fatalf("Stats = %d reuses, %d news; want the planted machine reused once and one fresh machine", reuses, news)
	}
	if len(pl.free) != 1 || pl.free[0] == bad {
		t.Fatal("the fresh machine was not returned to the pool")
	}
}
