package core

import (
	"testing"

	"repro/internal/vm"
)

// TestDialect pins the mini-C dialect rules the README states, each by the
// exit code of a one-line program, unprotected, with and without register
// promotion.
func TestDialect(t *testing.T) {
	cases := []struct {
		rule, src string
		want      int64
	}{
		{"int is 64-bit", `int main(void) { int x = 1 << 40; return x >> 38; }`, 4},
		{"sizeof(int) is the word size", `int main(void) { return sizeof(int) + sizeof(char *); }`, 16},
		{"char is unsigned: (char)300 is 44", `int main(void) { return (char)300; }`, 44},
		{"char is unsigned: a byte load zero-extends", `int main(void) { char c = -1; return c; }`, 255},
		{"signed addition wraps", `int main(void) { int x = 1 << 62; x = x + x; return x < 0; }`, 1},
		{"signed multiplication wraps", `int main(void) { int x = 3 << 62; return x * 4 == 0; }`, 1},
		{"unsigned is ignored", `int main(void) { unsigned x = 0; x = x - 1; return x < 0; }`, 1},
		{"long is ignored", `int main(void) { return sizeof(long) + sizeof(long long) + sizeof(unsigned long); }`, 24},
		{"unsigned char is char", `int main(void) { unsigned char c = 300; return c + sizeof(unsigned char); }`, 45},
	}
	for _, c := range cases {
		for _, noPromote := range []bool{false, true} {
			r := runT(t, c.src, Config{Protect: Vanilla, NoPromote: noPromote})
			if r.Trap != vm.TrapExit || r.ExitCode != c.want {
				t.Errorf("%s (NoPromote=%v): %v, exit %d; want exit %d", c.rule, noPromote, r.Trap, r.ExitCode, c.want)
			}
		}
	}
}
