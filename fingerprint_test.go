package repro

// Instrumentation fingerprints, the frozen reference of the single
// instrumentation path. testdata/fingerprints.json was recorded while the
// original mode-based CPS/CPI passes still existed, after asserting they
// and the backend seam agreed on every cps/cpi cell. Each cell is one
// workload × protection × lowering: a SHA-256 over every frame object's
// Unsafe/Sensitive bit, every instruction's Flags and every global's
// Sensitive/Annotated bit; the Table 2 statistics; and, for run cells,
// Cycles, Steps, ExitCode, Trap and the SHA-256 of Output. The file is never
// re-recorded to make a change pass: a moved cell means the change moved
// instrumentation or enforcement.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
)

const fingerprintFile = "testdata/fingerprints.json"

type fpCell struct {
	Flags string         `json:"flags"`
	Stats analysis.Stats `json:"stats"`
	Run   fpRun          `json:"run,omitzero"`
}

type fpRun struct {
	Cycles       int64  `json:"cycles"`
	Steps        int64  `json:"steps"`
	ExitCode     int64  `json:"exit_code"`
	Trap         string `json:"trap"`
	OutputSHA256 string `json:"output_sha256"`
}

// fpSpec is one cell of a workload: key suffix, config, and whether it runs.
type fpSpec struct {
	name string
	cfg  core.Config
	run  bool
}

// fingerprintSpecs lists every protection promoted (run) and unpromoted
// (flags and stats only).
func fingerprintSpecs() []fpSpec {
	var specs []fpSpec
	for _, name := range []string{"vanilla", "safestack", "cps", "cpi", "pac", "softbound", "cfi"} {
		cfg, err := core.ConfigForName(name)
		if err != nil {
			panic(err)
		}
		cfg.DEP = true
		np := cfg
		np.NoPromote = true
		specs = append(specs, fpSpec{name, cfg, true}, fpSpec{name + "/nopromote", np, false})
	}
	return specs
}

// prunedSpecs lists cps, cpi and pac without points-to pruning.
func prunedSpecs() []fpSpec {
	return []fpSpec{
		{"cps/nopt", core.Config{Protect: core.CPS, DEP: true, NoPointsTo: true}, true},
		{"cpi/nopt", core.Config{Protect: core.CPI, DEP: true, NoPointsTo: true}, true},
		{"pac/nopt", core.Config{Protect: core.PAC, DEP: true, NoPointsTo: true}, true},
	}
}

// ucredSrc exercises §3.2.1 struct annotations: the compilation skips
// points-to pruning and protects the annotated global's value itself.
const ucredSrc = `
struct ucred { int uid; int gid; };
struct ucred cred = { 1000, 1000 };
int helper(int x) { return x + 1; }
int (*fp)(int) = helper;
int main(void) {
	cred.uid = cred.uid + cred.gid;
	int r = fp(cred.uid);
	if (r == 2001) {
		puts("ok");
		return 0;
	}
	return 1;
}
`

var ucredCfg = core.Config{Protect: core.CPI, DEP: true, SensitiveStructs: []string{"ucred"}}

// flagFingerprint hashes the instrumentation-visible surface of p.
func flagFingerprint(p *ir.Program) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	bits := func(a, b bool) (v uint64) {
		if a {
			v |= 1
		}
		if b {
			v |= 2
		}
		return v
	}
	put(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		put(uint64(len(f.Frame)))
		for _, obj := range f.Frame {
			put(bits(obj.Unsafe, obj.Sensitive))
		}
		put(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			put(uint64(len(b.Ins)))
			for i := range b.Ins {
				put(uint64(b.Ins[i].Flags))
			}
		}
	}
	put(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		put(bits(g.Sensitive, g.Annotated))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint compiles src under cfg and computes its cell.
func fingerprint(t *testing.T, src string, cfg core.Config, run bool) fpCell {
	t.Helper()
	prog, err := core.Compile(src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	c := fpCell{Flags: flagFingerprint(prog.IR), Stats: prog.Stats}
	if run {
		r, err := prog.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := sha256.Sum256([]byte(r.Output))
		c.Run = fpRun{r.Cycles, r.Steps, r.ExitCode, r.Trap.String(), hex.EncodeToString(out[:])}
	}
	return c
}

func loadFingerprints(t *testing.T) map[string]fpCell {
	t.Helper()
	data, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	var cells map[string]fpCell
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatalf("%s: %v", fingerprintFile, err)
	}
	return cells
}

func checkCell(t *testing.T, want map[string]fpCell, key string, got fpCell) {
	t.Helper()
	if w, ok := want[key]; !ok || w != got {
		t.Errorf("%s: computed %+v, recorded %+v (present: %v)", key, got, w, ok)
	}
}

// checkWorkloads pins the given cells of every workload, one parallel
// subtest per workload.
func checkWorkloads(t *testing.T, want map[string]fpCell, specs []fpSpec) {
	for _, w := range allWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, s := range specs {
				checkCell(t, want, w.Name+"/"+s.name, fingerprint(t, w.Src, s.cfg, s.run))
			}
		})
	}
}

// TestBackendSeamEquivalenceAllWorkloads pins every workload × protection
// cell, and the file to exactly the cells the tests here compute.
func TestBackendSeamEquivalenceAllWorkloads(t *testing.T) {
	want := loadFingerprints(t)
	if n := len(allWorkloads())*(len(fingerprintSpecs())+len(prunedSpecs())) + 1; len(want) != n {
		t.Fatalf("%s holds %d cells, want %d", fingerprintFile, len(want), n)
	}
	checkWorkloads(t, want, fingerprintSpecs())
}

// TestBackendSeamPrunedEquivalence pins the NoPointsTo escape hatch: the
// type classifier alone, on every workload.
func TestBackendSeamPrunedEquivalence(t *testing.T) {
	checkWorkloads(t, loadFingerprints(t), prunedSpecs())
}

// TestBackendSeamAnnotatedEquivalence pins the annotation path.
func TestBackendSeamAnnotatedEquivalence(t *testing.T) {
	checkCell(t, loadFingerprints(t), "ucred/cpi", fingerprint(t, ucredSrc, ucredCfg, true))
}
