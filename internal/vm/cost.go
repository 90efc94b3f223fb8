package vm

// CostModel assigns deterministic cycle costs to simulated operations. The
// absolute values approximate micro-op counts on an out-of-order x86; what
// the experiments consume is the *relative* cost of instrumented vs plain
// operations, which is where the paper's overhead shapes come from:
// instrumented accesses pay the safe-pointer-store access on top of the
// regular access, unsafe frames pay an extra setup, SFI pays a mask per
// memory operation, and so on.
type CostModel struct {
	Bin    int64 // ALU op
	Mov    int64 // register-to-register move (promoted variable traffic)
	Load   int64 // regular memory load
	Store  int64 // regular memory store
	GEP    int64 // pointer arithmetic
	Cast   int64
	Addr   int64 // address materialization
	Br     int64
	CondBr int64
	Call   int64 // direct call (frame setup on one stack)
	ICall  int64 // indirect call
	Ret    int64
	Arg    int64 // per-argument move

	// IntrBase and IntrByte price the libc intrinsics.
	IntrBase int64
	IntrByte int64 // per 8 bytes processed
	Alloc    int64 // malloc/free bookkeeping

	// UnsafeFrame is the extra cost per call for functions that need a
	// second (unsafe) stack frame (§3.2.4: "the overhead of setting up the
	// extra stack frame is non-negligible" for short functions).
	UnsafeFrame int64

	// CookieSet/CookieCheck price stack-cookie prologue/epilogue work.
	CookieSet   int64
	CookieCheck int64

	// CFICheck prices one target-set membership test.
	CFICheck int64

	// CPICheck prices one bounds/validity check against loaded metadata
	// (§4's anticipated MPX implementation is the ablation CPICheck = 1).
	CPICheck int64

	// SBCheck and SBGEP price SoftBound's per-access check and per-pointer-
	// arithmetic metadata propagation. Full memory safety keeps two bounds
	// registers live per pointer and checks every dereference, which costs
	// more than CPI's rare checks (the whole point of Table 3).
	SBCheck int64
	SBGEP   int64

	// SPSArray, SPSTwoLevel and SPSHash price one probe or write of the
	// safe pointer store in each organisation (Config.SPS selects which
	// one a machine charges). The array is shift/mask plus one access off
	// the dedicated segment register, slightly more than a plain load
	// (§3.3: "essentially the same number of memory accesses"); the
	// two-level table is two dependent lookups; the hash is hash, probe and
	// compare.
	SPSArray    int64
	SPSTwoLevel int64
	SPSHash     int64

	// SafeIntrWord is the per-word extra cost of the safe-region-aware
	// memcpy/memset variants (§3.2.2), on top of the SPS probe.
	SafeIntrWord int64

	// DropBase and DropUnit price the page-granular free()-time bulk
	// invalidation (sps.Store.DropPages). The safe region is page-organized
	// precisely so deallocation can release whole shadow pages, so a
	// flagged free charges one per-call constant plus one unit charge per
	// *occupied* shadow page / second-level table / removed hash entry —
	// never per word of the freed region.
	DropBase int64
	DropUnit int64

	// PacSign and PacAuth price one MAC computation of the pac backend: a
	// sign on a protected store (and setjmp), an authenticate on a
	// protected load (and longjmp). Modeled on the ~4-cycle latency of an
	// ARMv8.3 PAC instruction; the pac backend charges these *instead of*
	// the safe-pointer-store access, which is where its different overhead
	// shape comes from.
	PacSign int64
	PacAuth int64

	// SFIMask is the per-store masking cost under SFI isolation (§3.2.3:
	// "as small as a single and operation"; measured <5% total extra).
	// Only stores are masked — store-only sandboxing suffices to keep the
	// safe region intact, as in NaCl-style SFI designs.
	SFIMask int64
}

// DefaultCosts returns the calibrated cost model used by the experiments.
func DefaultCosts() CostModel {
	return CostModel{
		Bin:          1,
		Mov:          1,
		Load:         2,
		Store:        2,
		GEP:          1,
		Cast:         0,
		Addr:         0,
		Br:           1,
		CondBr:       1,
		Call:         5,
		ICall:        7,
		Ret:          3,
		Arg:          1,
		IntrBase:     6,
		IntrByte:     1,
		Alloc:        30,
		UnsafeFrame:  4,
		CookieSet:    2,
		CookieCheck:  2,
		CFICheck:     3,
		CPICheck:     3,
		SBCheck:      6,
		SBGEP:        2,
		SPSArray:     4,
		SPSTwoLevel:  7,
		SPSHash:      12,
		SafeIntrWord: 2,
		DropBase:     20,
		DropUnit:     30,
		PacSign:      4,
		PacAuth:      4,
		SFIMask:      1,
	}
}
