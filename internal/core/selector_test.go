package core

import (
	"strings"
	"testing"

	"repro/internal/backend"
)

// TestProtectionSelector pins the one protection selector: every evaluation
// column name resolves through ConfigForName to the VM enforcer, safe stack
// and CFI switches below, and a registered backend named through Backend
// resolves exactly like its name.
func TestProtectionSelector(t *testing.T) {
	const src = `int main(void) { return 0; }`
	for _, tc := range []struct {
		name, backend  string // column name, vm.Config.Backend
		safeStack, cfi bool
	}{
		{"vanilla", "", false, false},
		{"safestack", "", true, false},
		{"cps", "cps", true, false},
		{"cpi", "cpi", true, false},
		{"softbound", "softbound", false, false},
		{"cfi", "", false, true},
		{"pac", "pac", true, false},
	} {
		cfg, err := ConfigForName(tc.name)
		if err != nil {
			t.Fatalf("ConfigForName(%q): %v", tc.name, err)
		}
		cfgs := []Config{cfg}
		if _, ok := backend.Get(tc.name); ok {
			cfgs = append(cfgs, Config{Backend: tc.name})
		}
		for _, cfg := range cfgs {
			c := compileT(t, src, cfg).VMConfig()
			if c.Backend != tc.backend || c.SafeStack != tc.safeStack || c.CFI != tc.cfi {
				t.Errorf("%s (%+v): VMConfig Backend=%q SafeStack=%v CFI=%v, want %q %v %v", tc.name,
					cfg, c.Backend, c.SafeStack, c.CFI, tc.backend, tc.safeStack, tc.cfi)
			}
		}
	}
}

// TestProtectionSelectorErrors pins the selector's rejections; unknown
// names must list the registered backends.
func TestProtectionSelectorErrors(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want []string // substrings of the error
	}{
		{Config{Protect: CPS, Backend: "cpi"}, []string{"conflicting", "cps", `"cpi"`}},
		{Config{Protect: SoftBound, Backend: "pac"}, []string{`"pac"`, "softbound"}},
		{Config{Backend: "bogus"}, append([]string{`"bogus"`}, backend.Names()...)},
	} {
		_, err := Compile(`int main(void) { return 0; }`, tc.cfg)
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: error %v does not mention %s", tc.cfg, err, w)
			}
		}
	}
	_, err := ConfigForName("bogus")
	for _, n := range backend.Names() {
		if err == nil || !strings.Contains(err.Error(), n) {
			t.Errorf(`ConfigForName("bogus"): error %v does not list backend %s`, err, n)
		}
	}
}
