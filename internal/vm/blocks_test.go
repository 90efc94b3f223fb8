package vm

import (
	"testing"
	"unsafe"

	"repro/internal/ir"
)

// srcBrChainGlobals exercises the segment shapes whose accounting is
// easiest to get wrong: nested ifs with empty arms lower to chains of
// empty blocks holding only a br (folded into the next op, or kept as an
// skBr when another br follows), and global-array indexing lowers to
// GEP global, reg (skGEPGR).
const srcBrChainGlobals = `
int g[16];
int h[8];
int main(void) {
	int s = 0;
	for (int i = 0; i < 16; i++) {
		g[i] = i * 3;
		if (i > 4) {
			if (i > 8) {
				if (i > 12) {
				}
			}
		}
		h[i & 7] = h[i & 7] + g[i];
	}
	for (int i = 0; i < 16; i++) {
		if (g[i] > 20) {
		} else {
			s += g[i];
		}
		s += h[i & 7];
	}
	return s & 255;
}`

// segOpCensus counts the folded branches, unfolded trace-extending
// branches and global-GEP ops in a predecoded program's segments.
func segOpCensus(c *Code) (folded, brs, gepGR int) {
	for fi := range c.Funcs {
		for _, op := range c.Funcs[fi].SegOps {
			if op.pre {
				folded++
			}
			switch op.kind {
			case skBr:
				brs++
			case skGEPGR:
				gepGR++
			}
		}
	}
	return
}

// TestSegmentBudgetSweep runs the program to every possible step budget
// with block compilation on and off and requires identical trap kind,
// steps, cycles and reported PC: a budget that runs out on a folded
// branch's own step must report the branch, one that runs out on the op
// after it must have charged the branch's cycles. SafeStack arms the
// segment executors' metadata maintenance (the skGEPGR bounds); PIE slides
// the data segment under the compile-time global offsets.
func TestSegmentBudgetSweep(t *testing.T) {
	p := compile(t, srcBrChainGlobals)
	blockCode := PredecodeWith(p, PredecodeOptions{})
	plainCode := PredecodeWith(p, PredecodeOptions{NoBlockCompile: true})
	folded, brs, gepGR := segOpCensus(blockCode)
	if folded == 0 || brs == 0 || gepGR == 0 {
		t.Fatalf("segments hold %d folded branches, %d unfolded branches, %d global GEPs; the sweep needs all three", folded, brs, gepGR)
	}
	for _, cfg := range []Config{{}, {SafeStack: true}, {ASLR: true, PIE: true, Seed: 7}} {
		full := runCode(t, p, plainCode, cfg)
		if full.Trap != TrapExit {
			t.Fatalf("full run: trap %v (%v)", full.Trap, full.Err)
		}
		for budget := int64(1); budget <= full.Steps+1; budget++ {
			cfg.MaxSteps = budget
			b := runCode(t, p, blockCode, cfg)
			n := runCode(t, p, plainCode, cfg)
			if b.Trap != n.Trap || b.Steps != n.Steps || b.Cycles != n.Cycles ||
				b.ExitCode != n.ExitCode || b.Err.PC != n.Err.PC {
				t.Fatalf("%+v: blocks %v steps=%d cycles=%d pc=%s; noblocks %v steps=%d cycles=%d pc=%s",
					cfg, b.Trap, b.Steps, b.Cycles, b.Err.PC, n.Trap, n.Steps, n.Cycles, n.Err.PC)
			}
		}
	}
}

// runCode runs main on a fresh machine over a given predecoding.
func runCode(t *testing.T, p *ir.Program, c *Code, cfg Config) *Result {
	t.Helper()
	m, err := NewShared(p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run("main")
}

// TestSegOpSize pins the segment micro-op at one 64-byte cache line, the
// size runSegment's op stream was tuned against; growing it must be a
// deliberate decision, like TestPInsSize's pin of PIns.
func TestSegOpSize(t *testing.T) {
	if got := unsafe.Sizeof(segOp{}); got != 64 {
		t.Errorf("unsafe.Sizeof(segOp) = %d, want 64", got)
	}
}
