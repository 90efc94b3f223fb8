package ir_test

import (
	"math"
	"testing"

	"repro/internal/ir"
)

// TestALUEval pins the one ALU semantics that constant folding and the
// VM's handler share, at the edges of C on two's complement.
func TestALUEval(t *testing.T) {
	const minInt, maxU = math.MinInt64, math.MaxUint64
	u := func(v int64) uint64 { return uint64(v) }
	cases := []struct {
		op   ir.ALU
		a, b uint64
		want uint64
		ok   bool
	}{
		{ir.ADiv, 7, 0, 0, false},
		{ir.ARem, 7, 0, 0, false},
		{ir.ADiv, 0, 0, 0, false},
		{ir.ADiv, u(minInt), u(-1), u(minInt), true},
		{ir.ARem, u(minInt), u(-1), 0, true},
		{ir.AMul, u(minInt), u(-1), u(minInt), true},
		{ir.ADiv, u(-7), 2, u(-3), true},
		{ir.ARem, u(-7), 2, u(-1), true},
		{ir.AAdd, maxU, 1, 0, true},
		{ir.ASub, 0, 1, maxU, true},
		{ir.AShl, 1, 63, 1 << 63, true},
		{ir.AShl, 1, 64, 1, true},
		{ir.AShl, 1, 65, 2, true},
		{ir.AShl, 1, u(-1), 1 << 63, true},
		{ir.AShr, u(minInt), 63, maxU, true},
		{ir.AShr, u(minInt), 64, u(minInt), true},
		{ir.AShr, 1 << 62, 66, 1 << 60, true},
		{ir.ALt, maxU, 1, 1, true}, // -1 < 1: signed, not unsigned
		{ir.AGt, maxU, 1, 0, true},
		{ir.ALe, u(minInt), math.MaxInt64, 1, true},
		{ir.AGe, 1 << 63, 0, 0, true},
		{ir.AEq, maxU, maxU, 1, true},
		{ir.ANe, maxU, 1, 1, true},
		{ir.AAnd, 0xf0, 0x3c, 0x30, true},
		{ir.AOr, 0xf0, 0x3c, 0xfc, true},
		{ir.AXor, 0xf0, 0x3c, 0xcc, true},
		{ir.ANe + 1, 1, 1, 0, false}, // unknown operator
	}
	for _, c := range cases {
		got, ok := c.op.Eval(c.a, c.b)
		if got != c.want || ok != c.ok {
			t.Errorf("ALU %d (%#x, %#x) = %#x, %v; want %#x, %v",
				c.op, c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}
