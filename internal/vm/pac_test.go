package vm

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/instrument"
	"repro/internal/ir"
)

// pac-backend unit tests: the MAC enumeration bound (exactly one of the
// 2^bits MAC-field candidates authenticates a forged word), the end-to-end
// forged-pointer attack whose measured success rate must equal the modeled
// forgery probability, and the slot binding that defeats pointer splicing.

// compilePac compiles src under the pac backend (with its safe stack).
func compilePac(t *testing.T, src string) *ir.Program {
	t.Helper()
	p := compile(t, src)
	instrument.SafeStack(p)
	instrument.WithBackend(p, backend.PAC.Backend(), instrument.Opts{})
	return p
}

// runOn builds a machine over an already-instrumented program and runs it.
func runOn(t *testing.T, p *ir.Program, cfg Config) *Result {
	t.Helper()
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run("main")
}

// TestPacMACEnumeration pins the forgery-probability model at the word
// level: of all 2^bits possible MAC fields for a chosen (value, slot),
// exactly one authenticates — the one mac() computes — so a blind forgery
// succeeds with probability exactly 2^-bits per try.
func TestPacMACEnumeration(t *testing.T) {
	p := &pacEnforcer{bits: 8, mask: 1<<8 - 1, key: 0x5DEECE66D<<5 | 1}
	const val, slot = uint64(0x0000_7f12_3456_78f8), uint64(0x0000_7fff_0000_1008)
	matches := 0
	for cand := uint64(0); cand < 1<<8; cand++ {
		word := pacMarkerBit | cand<<47 | val&pacValMask
		if _, ok := p.authWord(word, slot); ok {
			matches++
		}
	}
	if matches != 1 {
		t.Fatalf("%d of 256 MAC candidates authenticate, want exactly 1", matches)
	}

	w := p.signWord(val, slot)
	if got, ok := p.authWord(w, slot); !ok || got != val&pacValMask {
		t.Fatalf("genuine signature rejected (ok=%v val=%#x)", ok, got)
	}
	// Slot binding: the same signed word at any other slot must not
	// authenticate (deterministic here; probabilistically 2^-bits).
	for _, other := range []uint64{slot + 8, slot - 8, slot ^ 0x1000} {
		if _, ok := p.authWord(w, other); ok {
			t.Errorf("word signed for slot %#x authenticates at %#x: splice defense broken", slot, other)
		}
	}
}

// TestPacForgedMACAttackProbability is the end-to-end forgery experiment:
// an attacker overwrites a signed function-pointer slot with every possible
// MAC field for their goal address (PacBits=8 keeps the sweep to 256 runs).
// Exactly one forgery must hijack control — measured success rate 1/256,
// matching Result.PacForgeryProb — and every other attempt must raise
// TrapPacViolation at the indirect call.
func TestPacForgedMACAttackProbability(t *testing.T) {
	const src = `
int hit = 0;
void win(void) { hit = 1; }
void benign(void) {}
void (*fp)(void) = benign;
void attack_point(void) {}
int main(void) {
	attack_point();
	fp();
	return hit;
}`
	p := compilePac(t, src)
	cfg := Config{Protect: backend.PAC, PacBits: 8, DEP: true, Seed: 7}

	successes, violations := 0, 0
	var prob float64
	for cand := uint64(0); cand < 1<<8; cand++ {
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetHook("attack_point", func(mm *Machine) {
			atk := mm.Attacker(true)
			slot, _ := atk.GlobalAddr("fp")
			goal, _ := mm.FuncAddr("win")
			atk.WriteWord(slot, pacMarkerBit|cand<<47|goal&pacValMask)
		})
		r := m.Run("main")
		prob = r.PacForgeryProb
		switch {
		case r.Trap == TrapExit && r.ExitCode == 1:
			successes++
		case r.Trap == TrapPacViolation:
			violations++
		default:
			t.Fatalf("cand %#x: unexpected outcome trap=%v exit=%d (%v)",
				cand, r.Trap, r.ExitCode, r.Err)
		}
	}
	if successes != 1 || violations != 255 {
		t.Errorf("forgery sweep: %d hijacks, %d violations; model says exactly 1 and 255", successes, violations)
	}
	if prob != 1.0/256 {
		t.Errorf("PacForgeryProb = %g, want 1/256 at PacBits=8", prob)
	}
}

// TestPacSpliceAndCounters: copying a genuinely signed word to a different
// slot (a pointer-splice attack, no forgery needed) must still trap,
// because the slot address is MAC input; and the result carries the
// sign/auth counters and the default 2^-16 forgery probability.
func TestPacSpliceAndCounters(t *testing.T) {
	const src = `
void win(void) {}
void benign(void) {}
void (*good)(void) = win;
void (*fp)(void) = benign;
void attack_point(void) {}
int main(void) {
	attack_point();
	fp();
	return 0;
}`
	p := compilePac(t, src)
	m, err := New(p, Config{Protect: backend.PAC, DEP: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m.SetHook("attack_point", func(mm *Machine) {
		atk := mm.Attacker(true)
		from, _ := atk.GlobalAddr("good")
		to, _ := atk.GlobalAddr("fp")
		if w, ok := atk.ReadWord(from); ok {
			atk.WriteWord(to, w) // signed for `good`'s slot, not `fp`'s
		}
	})
	r := m.Run("main")
	if r.Trap != TrapPacViolation {
		t.Fatalf("spliced signed word: trap=%v (%v), want PAC violation", r.Trap, r.Err)
	}
	if r.PacAuths == 0 || r.PacAuthFails == 0 {
		t.Errorf("counters: auths=%d authFails=%d, want both > 0", r.PacAuths, r.PacAuthFails)
	}
	if r.PacForgeryProb != 1.0/65536 {
		t.Errorf("default PacForgeryProb = %g, want 2^-16", r.PacForgeryProb)
	}
}

// TestPacZeroMetadataFootprint: the point of in-place authentication is
// that no shadow memory exists — the safe-pointer-store peak of a pac run
// must be identically zero while the same program under cpi reports one.
func TestPacZeroMetadataFootprint(t *testing.T) {
	const src = `
void f(void) {}
void (*fp)(void) = f;
int main(void) { fp(); return 0; }`
	rp := runOn(t, compilePac(t, src), Config{Protect: backend.PAC, DEP: true})
	if rp.Trap != TrapExit {
		t.Fatalf("pac run: %v", rp.Err)
	}
	if rp.Mem.SPSBytes != 0 || rp.Mem.SPSEntries != 0 {
		t.Errorf("pac metadata footprint = %d bytes / %d entries, want 0/0",
			rp.Mem.SPSBytes, rp.Mem.SPSEntries)
	}
	if rp.PacAuths == 0 {
		t.Error("pac run authenticated nothing; the pointer was not protected")
	}

	cpiProg := compile(t, src)
	instrument.SafeStack(cpiProg)
	instrument.WithBackend(cpiProg, backend.CPI.Backend(), instrument.Opts{})
	rc := runOn(t, cpiProg, Config{Protect: backend.CPI, DEP: true})
	if rc.Trap != TrapExit {
		t.Fatalf("cpi run: %v", rc.Err)
	}
	if rc.Mem.SPSEntries == 0 {
		t.Error("cpi run kept no safe-store entries; comparison baseline broken")
	}
}
