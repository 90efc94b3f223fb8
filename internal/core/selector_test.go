package core

import (
	"strings"
	"testing"
)

var protectionNames = []string{"vanilla", "safestack", "cps", "cpi", "softbound", "cfi", "pac"}

// TestProtectionSelector pins the one protection selector from the column
// name to the VM: every name resolves through ConfigForName to the
// Protection VMConfig hands the machine, which maps it onto its mechanisms
// (vm's TestProtectionMechanisms).
func TestProtectionSelector(t *testing.T) {
	const src = `int main(void) { return 0; }`
	for _, name := range protectionNames {
		cfg, err := ConfigForName(name)
		if err != nil {
			t.Fatalf("ConfigForName(%q): %v", name, err)
		}
		if got := compileT(t, src, cfg).VMConfig().Protect; got.String() != name {
			t.Errorf("%s: VMConfig().Protect = %v", name, got)
		}
	}
}

// TestProtectionSelectorErrors pins that an unknown name's error lists
// every protection.
func TestProtectionSelectorErrors(t *testing.T) {
	_, err := ConfigForName("bogus")
	for _, n := range append([]string{`"bogus"`}, protectionNames...) {
		if err == nil || !strings.Contains(err.Error(), n) {
			t.Errorf(`ConfigForName("bogus"): error %v does not mention %s`, err, n)
		}
	}
}
