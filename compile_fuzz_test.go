package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// FuzzCompile feeds arbitrary bytes to the whole front end and compiler
// under cpi: hostile source must come back as a program or an error, never
// a Go panic. The micro workloads seed the search with well-formed C.
func FuzzCompile(f *testing.F) {
	for _, w := range workloads.Micro() {
		f.Add([]byte(w.Src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := core.Compile(string(data), core.Config{Protect: core.CPI, DEP: true})
		if (prog == nil) == (err == nil) {
			t.Fatalf("Compile returned program %v and error %v", prog != nil, err)
		}
	})
}
