package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// geomean is the geometric mean of xs.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Runtime metrics read around a measurement window.
const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	gcPauseMetric    = "/sched/pauses/total/gc:seconds"
	schedLatMetric   = "/sched/latencies:seconds"
)

// goSnapshot is a reading of the Go runtime's counters.
type goSnapshot []metrics.Sample

func readGo() goSnapshot {
	s := goSnapshot{{Name: allocBytesMetric}, {Name: gcPauseMetric}, {Name: schedLatMetric}}
	metrics.Read(s)
	return s
}

// allocBytes is the heap allocated between two snapshots.
func allocBytes(from, to goSnapshot) float64 {
	return float64(to[0].Value.Uint64() - from[0].Value.Uint64())
}

// histQuantileMs is the q-quantile, in milliseconds, of the events a runtime
// histogram recorded between two snapshots, read as the upper edge of the
// bucket it falls in.
func histQuantileMs(from, to goSnapshot, i int, q float64) float64 {
	a, b := from[i].Value.Float64Histogram(), to[i].Value.Float64Histogram()
	var total uint64
	for k := range b.Counts {
		total += b.Counts[k] - a.Counts[k]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for k := range b.Counts {
		seen += b.Counts[k] - a.Counts[k]
		if seen >= rank {
			edge := b.Buckets[k+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[k]
			}
			return edge * 1e3
		}
	}
	return 0
}

// protocol records the conditions a result was measured under.
type protocol struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit"`
	Counts     map[string]int `json:"counts"`
}

func newProtocol(workload string, seed int64, seconds float64, traced bool) protocol {
	return protocol{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Commit: gitHead("."),
		Counts: map[string]int{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead resolves HEAD of the git repository at dir from its files, or
// returns "unknown" when dir is not a repository (a source export).
func gitHead(dir string) string {
	gd := filepath.Join(dir, ".git")
	b, err := os.ReadFile(filepath.Join(gd, "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(b))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(gd, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	b, err = os.ReadFile(filepath.Join(gd, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
