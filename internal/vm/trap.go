package vm

import "fmt"

// TrapKind classifies how an execution ended.
type TrapKind uint8

// Trap kinds. TrapExit is the only normal termination; TrapHijacked means
// attacker-controlled control flow reached a target the machine would have
// executed (the attack succeeded); the *Violation kinds mean a deployed
// defense detected and stopped corruption.
const (
	TrapNone TrapKind = iota
	TrapExit
	TrapHijacked
	TrapSegFault
	TrapNXFault
	TrapCPIViolation
	TrapCPSViolation
	TrapSBViolation
	TrapCFIViolation
	TrapStackSmash
	TrapNullCall
	TrapMaxSteps
	TrapStackOverflow
	// TrapOOM is kept for its value: an allocation the heap cannot fit
	// returns NULL, so no program behaviour raises it today.
	TrapOOM
	TrapAbort
	TrapDivZero
	TrapBadJump
	TrapFortify
	// TrapAuditSensitive is raised only under Config.AuditSensitive: a
	// value with code-pointer provenance moved through an uninstrumented
	// memory operation, i.e. the static sensitivity classification missed
	// an operation the dynamic oracle proves sensitive.
	TrapAuditSensitive
	// TrapPacViolation is the pac backend's detection: a control transfer
	// through a pointer that failed MAC authentication.
	TrapPacViolation
	// TrapInternal means the machine itself failed: a Go panic inside Run,
	// contained by Pool.Serve. No program behaviour raises it.
	TrapInternal
)

var trapNames = [...]string{
	TrapNone:           "running",
	TrapExit:           "exit",
	TrapHijacked:       "control-flow hijacked",
	TrapSegFault:       "segmentation fault",
	TrapNXFault:        "NX fault (DEP)",
	TrapCPIViolation:   "CPI violation",
	TrapCPSViolation:   "CPS violation",
	TrapSBViolation:    "SoftBound violation",
	TrapCFIViolation:   "CFI violation",
	TrapStackSmash:     "stack smashing detected",
	TrapNullCall:       "call through null/unprotected pointer",
	TrapMaxSteps:       "step budget exhausted",
	TrapStackOverflow:  "stack overflow",
	TrapOOM:            "out of memory",
	TrapAbort:          "abort",
	TrapDivZero:        "division by zero",
	TrapBadJump:        "jump to invalid location",
	TrapFortify:        "fortify check failed",
	TrapAuditSensitive: "sensitivity audit: code pointer through unprotected memory",
	TrapPacViolation:   "PAC violation",
	TrapInternal:       "internal VM error",
}

// String names the trap kind.
func (k TrapKind) String() string {
	if int(k) < len(trapNames) {
		return trapNames[k]
	}
	return fmt.Sprintf("trap(%d)", uint8(k))
}

// HijackVia says which control transfer was subverted.
type HijackVia uint8

// Hijack vectors.
const (
	ViaNone HijackVia = iota
	ViaReturn
	ViaICall
	ViaLongjmp
)

var viaNames = [...]string{
	ViaNone: "none", ViaReturn: "return", ViaICall: "indirect call",
	ViaLongjmp: "longjmp",
}

// String names the hijack vector.
func (v HijackVia) String() string {
	if int(v) >= len(viaNames) {
		return fmt.Sprintf("HijackVia(%d)", v)
	}
	return viaNames[v]
}

// Trap describes a terminated execution.
type Trap struct {
	Kind   TrapKind
	Msg    string
	Target uint64    // hijack/violation target address
	Via    HijackVia // for TrapHijacked
	PC     string    // function/block/instr where it happened
}

func (t *Trap) Error() string {
	if t.Msg != "" {
		return fmt.Sprintf("%s: %s (at %s)", t.Kind, t.Msg, t.PC)
	}
	return fmt.Sprintf("%s (at %s)", t.Kind, t.PC)
}

// Result summarizes one program run.
type Result struct {
	Trap     TrapKind
	ExitCode int64
	Cycles   int64
	Steps    int64
	// Dispatches is the number of dispatch round trips the run took — loop
	// iterations plus segment trampoline hops, so a block-compiled segment
	// activation counts once however it was entered. Steps counts executed
	// constituents; the gap is the dispatches block compilation absorbed
	// (BlockFrac).
	Dispatches int64
	// BlockSteps and BlockEntries are the constituents executed inside
	// block-compiled segments and the number of segment activations; their
	// difference is the dispatches block compilation absorbed.
	BlockSteps   int64
	BlockEntries int64
	Output       string

	// Hijack details when Trap == TrapHijacked.
	HijackTarget uint64
	HijackVia    HijackVia

	// Heap-misuse accounting: double frees and frees of untracked
	// (interior or foreign) addresses observed at free sites under the
	// protected configurations. The allocator stays lenient — both are
	// absorbed, like most production allocators — but the events are the
	// raw material of temporal-safety bugs, so runs surface them.
	DoubleFrees    int64
	UntrackedFrees int64

	// pac backend accounting: MAC sign/authenticate operations performed,
	// authentication failures observed, and the modeled probability that a
	// single forged MAC authenticates (2^-PacBits). All zero under other
	// backends.
	PacSigns       int64
	PacAuths       int64
	PacAuthFails   int64
	PacForgeryProb float64

	// Memory accounting for the §5.2 memory-overhead experiment.
	Mem MemStats

	// Err carries the full trap for diagnostics.
	Err *Trap
}

// Ok reports whether the program exited normally.
func (r *Result) Ok() bool { return r.Trap == TrapExit }

// BlockFrac returns the fraction of executed constituents whose dispatch
// block compilation absorbed: constituents that ran inside a compiled
// segment beyond each activation's single dispatch. 0 when nothing ran.
func (r *Result) BlockFrac() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.BlockSteps-r.BlockEntries) / float64(r.Steps)
}

// MemStats records peak memory consumption by category (bytes).
type MemStats struct {
	Globals    int64
	HeapPeak   int64
	StackPeak  int64 // regular stacks
	SafeStack  int64 // safe stacks (peak)
	SPSBytes   int64 // safe pointer store footprint (peak)
	SPSEntries int64 // live entries (peak)
}

// Program bytes is the baseline footprint (globals + heap + stacks).
func (m *MemStats) ProgramBytes() int64 {
	return m.Globals + m.HeapPeak + m.StackPeak + m.SafeStack
}

// OverheadPct returns the protection memory overhead percentage: safe region
// extra bytes relative to the baseline program footprint.
func (m *MemStats) OverheadPct() float64 {
	base := m.ProgramBytes()
	if base == 0 {
		return 0
	}
	return 100 * float64(m.SPSBytes) / float64(base)
}
