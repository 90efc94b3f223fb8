// Package ir defines the typed register IR that the Levee reproduction
// analyses, instruments, and executes. It plays the role LLVM IR plays for
// the paper's prototype: a low-level, strongly-typed representation in which
// memory operations are explicit, so the CPI/CPS/SafeStack passes can decide
// per-instruction whether an access touches sensitive data (§3.2.1–§3.2.2).
//
// The IR is single-assignment at the register level (each virtual register
// is defined by exactly one instruction) and has no phi nodes: in the
// baseline lowering, local variables live in frame objects, as in
// unoptimized clang output, which is the representation the paper's passes
// see before optimization (§3.2.2: "The CPI instrumentation pass precedes
// compiler optimizations"). The irgen register promotion pass (mem2reg)
// relaxes this for promoted scalar variables: each gets one *mutable*
// canonical register (recorded in Func.Promoted) that every reaching
// definition writes — the destructed form of block-argument phis — and the
// verifier enforces def-before-use across blocks for those registers
// instead of single assignment.
package ir

import (
	"repro/internal/ctypes"
	"repro/internal/minic/builtins"
)

// Program is a complete translation unit lowered to IR.
type Program struct {
	Funcs   []*Func
	Globals []*Global
	Strings []string
	Structs []*ctypes.Struct

	// Protection describes which passes have run; informational.
	Protection []string
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global is a global variable with typed initialization data.
type Global struct {
	Name string
	Type *ctypes.Type
	Size int64
	Init []InitItem

	// Sensitive marks globals that contain sensitive data per the CPI
	// static analysis (set by the instrumentation passes).
	Sensitive bool

	// Annotated marks globals of programmer-annotated sensitive types
	// (§3.2.1); the loader seeds their initial values into the safe store.
	Annotated bool
}

// InitKind says what an InitItem's value refers to.
type InitKind uint8

// Init item kinds.
const (
	InitConst InitKind = iota
	InitFuncAddr
	InitGlobalAddr
	InitStringAddr
)

// InitItem initializes Size bytes at Offset within a global.
type InitItem struct {
	Offset int64
	Size   int64 // 1 or 8
	Kind   InitKind
	Val    int64 // InitConst
	Index  int   // func/global/string table index otherwise
}

// Param is a function parameter; parameter i arrives in register i.
type Param struct {
	Name string
	Type *ctypes.Type
}

// PromotedVar records one scalar variable the irgen register promotion pass
// moved out of its frame slot into a virtual register. Promoted registers
// are *mutable*: unlike the single-assignment temporaries, they may be
// written by any number of instructions (each write is a "phi-resolved"
// definition of the variable), and the verifier instead enforces that every
// read is preceded by a write on all paths from entry. The declared type is
// kept so the sensitivity analyses retain the provenance the frame object
// used to carry. A promoted parameter keeps its parameter register, so the
// caller's argument is the variable for the whole activation.
type PromotedVar struct {
	Reg  int
	Name string
	Type *ctypes.Type
}

// Func is one function.
type Func struct {
	Name     string
	Ret      *ctypes.Type
	Params   []Param
	Variadic bool
	Frame    []*FrameObj
	Blocks   []*Block
	NumRegs  int

	// Promoted lists the frame slots the register promotion pass replaced
	// with mutable virtual registers (empty when lowering ran unpromoted).
	Promoted []PromotedVar

	AddressTaken bool

	// External marks declared-but-undefined functions; they lower to a
	// stub returning zero (the VM has no dynamic linker to resolve them).
	External bool

	// Set by the safe-stack pass: whether any frame object lives on the
	// unsafe stack, requiring an extra frame setup at each call (the
	// FNUStack metric of Table 2 counts these functions).
	NeedsUnsafeFrame bool

	// SafeSize and UnsafeSize are the laid-out byte sizes of the two stack
	// frames (computed by Layout).
	SafeSize   int64
	UnsafeSize int64
}

// FrameObj is a stack-allocated object (local variable, or a parameter
// spill slot — every parameter gets one, as in unoptimized compiler output).
type FrameObj struct {
	Name  string
	Type  *ctypes.Type
	Size  int64
	Align int64

	// AddrEscapes is set when the object's address is materialized into a
	// register (OpAddr) or used as a variable-index GEP base: its accesses
	// cannot all be proven safe statically (§3.2.4).
	AddrEscapes bool

	// Unsafe is set by the safe-stack pass: the object is relocated to the
	// unsafe stack in regular memory.
	Unsafe bool

	// Offset is the object's byte offset within its stack frame (safe or
	// unsafe, per the Unsafe flag), assigned by Layout.
	Offset int64

	// Sensitive marks objects of sensitive type (CPI analysis).
	Sensitive bool
}

// Block is a basic block. The final instruction must be a terminator
// (OpRet, OpBr, OpCondBr); no other instruction may be a terminator.
type Block struct {
	Index int
	Name  string
	Ins   []Instr
}

// Op is an IR opcode.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	// OpBin: Dst = A <alu> B.
	OpBin
	// OpLoad: Dst = *(A); Size bytes; Ty is the pointee type.
	OpLoad
	// OpStore: *(A) = B; Size bytes; Ty is the pointee type.
	OpStore
	// OpAddr: Dst = A where A is a frame/global/func/string address value.
	// Materializing a frame address is what makes an object escape.
	OpAddr
	// OpGEP: Dst = A + B*Scale + Off. Pointer arithmetic; based-on metadata
	// propagates from A per §3.1 case (iv). Ty is the result pointer type.
	OpGEP
	// OpCast: Dst = A, reinterpreted from FromTy to Ty. Metadata rules
	// follow Appendix A: casting to a sensitive type from a regular value
	// yields invalid metadata.
	OpCast
	// OpCall: Dst = Callee(Args...). Callee >= 0 indexes Program.Funcs;
	// Callee < 0 means builtin Intr.
	OpCall
	// OpICall: Dst = (*A)(Args...). A holds a code address. Ty is the
	// function pointer type.
	OpICall
	// OpRet: return A (Value of kind ValNone for void).
	OpRet
	// OpBr: jump to Blk0.
	OpBr
	// OpCondBr: if A != 0 jump to Blk0 else Blk1.
	OpCondBr
	// OpMov: Dst = A, metadata included. Introduced by the irgen register
	// promotion pass: the load/store halves of a promoted frame slot become
	// register moves, and control-flow joins (short-circuit and conditional
	// temporaries) become moves into the variable's canonical register from
	// every predecessor arm — the destructed form of a block-argument phi.
	OpMov
)

// ALU is a binary operator for OpBin.
type ALU uint8

// ALU operators. Comparison results are 0/1.
const (
	AAdd ALU = iota
	ASub
	AMul
	ADiv
	ARem
	AAnd
	AOr
	AXor
	AShl
	AShr
	ALt
	AGt
	ALe
	AGe
	AEq
	ANe
)

// Eval applies the operator to two register words with C-on-two's-
// complement semantics: arithmetic wraps, division truncates (MinInt64 / -1
// is MinInt64), shift counts are taken mod 64, >> is arithmetic, and the
// ordered comparisons are signed. It returns false on a zero divisor and
// on an unknown operator. Constant folding and the VM's handler both call
// it, so a folded expression computes what the executed one would.
func (op ALU) Eval(a, b uint64) (uint64, bool) {
	sa, sb := int64(a), int64(b)
	var c bool
	switch op {
	case AAdd:
		return a + b, true
	case ASub:
		return a - b, true
	case AMul:
		return uint64(sa * sb), true
	case ADiv:
		if b == 0 {
			return 0, false
		}
		return uint64(sa / sb), true
	case ARem:
		if b == 0 {
			return 0, false
		}
		return uint64(sa % sb), true
	case AAnd:
		return a & b, true
	case AOr:
		return a | b, true
	case AXor:
		return a ^ b, true
	case AShl:
		return a << (b & 63), true
	case AShr:
		return uint64(sa >> (b & 63)), true
	case ALt:
		c = sa < sb
	case AGt:
		c = sa > sb
	case ALe:
		c = sa <= sb
	case AGe:
		c = sa >= sb
	case AEq:
		c = a == b
	case ANe:
		c = a != b
	default:
		return 0, false
	}
	if c {
		return 1, true
	}
	return 0, true
}

// ValKind says how a Value is interpreted.
type ValKind uint8

// Value kinds.
const (
	ValNone ValKind = iota
	// ValReg: virtual register Reg.
	ValReg
	// ValConst: immediate Imm.
	ValConst
	// ValFrame: address of frame object Index, plus constant byte offset
	// Imm. A load/store whose address operand is a ValFrame with a
	// statically in-bounds offset is a proven-safe stack access (§3.2.4).
	ValFrame
	// ValGlobal: address of global Index plus offset Imm.
	ValGlobal
	// ValFunc: address of function Index (a code pointer constant).
	ValFunc
	// ValString: address of interned string literal Index plus offset Imm.
	ValString
)

// Value is an instruction operand.
type Value struct {
	Kind  ValKind
	Reg   int
	Imm   int64
	Index int
}

// Reg returns a register operand.
func Reg(r int) Value { return Value{Kind: ValReg, Reg: r} }

// Const returns an immediate operand.
func Const(v int64) Value { return Value{Kind: ValConst, Imm: v} }

// FrameAddr returns the address of frame object i plus off bytes.
func FrameAddr(i int, off int64) Value {
	return Value{Kind: ValFrame, Index: i, Imm: off}
}

// GlobalAddr returns the address of global i plus off bytes.
func GlobalAddr(i int, off int64) Value {
	return Value{Kind: ValGlobal, Index: i, Imm: off}
}

// FuncAddr returns the address of function i.
func FuncAddr(i int) Value { return Value{Kind: ValFunc, Index: i} }

// StringAddr returns the address of string literal i plus off bytes.
func StringAddr(i int, off int64) Value {
	return Value{Kind: ValString, Index: i, Imm: off}
}

// IsAddr reports whether v is a direct address constant.
func (v Value) IsAddr() bool {
	switch v.Kind {
	case ValFrame, ValGlobal, ValFunc, ValString:
		return true
	}
	return false
}

// Prot is a bitmask of instrumentation applied to an instruction by the
// protection passes. The VM interprets these flags; their presence on loads
// and stores is also what the Table 2 statistics count.
type Prot uint16

// Protection flags.
const (
	// ProtCPIStore: store goes to the safe pointer store with metadata.
	ProtCPIStore Prot = 1 << iota
	// ProtCPILoad: load reads value+metadata from the safe pointer store.
	ProtCPILoad
	// ProtCPICheck: bounds/temporal check on the dereferenced address.
	ProtCPICheck
	// ProtCPS: the store/load is a CPS code-pointer access (no bounds).
	ProtCPS
	// ProtUniversal: universal-pointer access; SPS used only when the
	// runtime metadata is valid (§3.2.2).
	ProtUniversal
	// ProtSB: SoftBound full-memory-safety instrumentation.
	ProtSB
	// ProtSBCheck: SoftBound bounds check on a dereference.
	ProtSBCheck
	// ProtCFI: indirect-call target-set check.
	ProtCFI
	// ProtSafeIntr: libc memory intrinsic replaced by its safe-region-aware
	// variant (per-word SPS checks; §3.2.2).
	ProtSafeIntr
	// ProtAnnotated: access to programmer-annotated sensitive data
	// (§3.2.1's struct ucred example); the value itself is kept in the
	// safe pointer store even though it is not a pointer.
	ProtAnnotated
)

// Instr is one IR instruction.
type Instr struct {
	// The narrow fields share the first word.
	Op     Op
	ALU    ALU
	Intr   builtins.Kind // OpCall with Callee < 0
	Size   uint8         // load/store width in bytes (1 or 8)
	Flags  Prot
	Dst    int // destination register; -1 when none
	A, B   Value
	Args   []Value
	Callee int // OpCall: function index, or -1 for builtins
	Ty     *ctypes.Type
	FromTy *ctypes.Type // OpCast source type
	Off    int64        // OpGEP constant offset
	Scale  int64        // OpGEP index scale
	Blk0   int
	Blk1   int
}

// IsTerm reports whether the instruction terminates a block.
func (in *Instr) IsTerm() bool {
	switch in.Op {
	case OpRet, OpBr, OpCondBr:
		return true
	}
	return false
}

// IsMemOp reports whether the instruction is a memory operation for the
// purposes of the Table 2 instrumentation statistics (loads and stores).
func (in *Instr) IsMemOp() bool { return in.Op == OpLoad || in.Op == OpStore }

// Layout assigns frame offsets for both stacks and computes frame sizes.
// It must be called after the safe-stack pass has set Unsafe flags (or with
// no flags set, in which case everything lands on the single safe stack,
// which doubles as the vanilla configuration's regular stack).
func (f *Func) Layout() {
	var safe, unsafe int64
	f.NeedsUnsafeFrame = false
	for _, obj := range f.Frame {
		a := obj.Align
		if a <= 0 {
			a = 1
		}
		if obj.Unsafe {
			unsafe = alignUp(unsafe, a)
			obj.Offset = unsafe
			unsafe += obj.Size
			f.NeedsUnsafeFrame = true
		} else {
			safe = alignUp(safe, a)
			obj.Offset = safe
			safe += obj.Size
		}
	}
	f.SafeSize = alignUp(safe, 8)
	f.UnsafeSize = alignUp(unsafe, 8)
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Bits is a set over the items 0..n-1 of a dataflow domain, 64 to a word.
type Bits []uint64

// NewBits returns an empty set able to hold items 0..n-1.
func NewBits(n int) Bits { return make(Bits, (n+63)>>6) }

// Has reports whether item i is in the set.
func (s Bits) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add puts item i in the set.
func (s Bits) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Succs returns a block's control-flow successors and their count: the
// one terminator walk of the block graph. A condbr whose targets are equal
// yields its target twice.
func (b *Block) Succs() ([2]int, int) {
	term := &b.Ins[len(b.Ins)-1]
	switch term.Op {
	case OpBr:
		return [2]int{term.Blk0}, 1
	case OpCondBr:
		return [2]int{term.Blk0, term.Blk1}, 2
	}
	return [2]int{}, 0
}

// MustDefinedIn computes the forward must-defined dataflow over the block
// graph: for an item domain of size n (registers, frame slots, ...), the
// returned per-block sets hold the items guaranteed written on every path
// from entry to that block's start (IN[b] = ∩ OUT[pred]; OUT = IN ∪ defs).
// entry seeds the entry block's IN (nil means nothing pre-defined).
// blockDefs runs once per block, before iterating, and must add the items
// the block writes to the given empty set. Bits at or above n are
// unspecified in every returned set. The verifier's promoted-register
// invariant, the irgen promotion pass's initialization check, and the VM's
// register-clear elision all share this lattice.
func (f *Func) MustDefinedIn(n int, entry Bits, blockDefs func(b *Block, gen Bits)) []Bits {
	nb, w := len(f.Blocks), (n+63)>>6
	words := make([]uint64, 2*nb*w)
	in, gen := splitBits(words[:nb*w], nb, w), words[nb*w:]
	for bi, b := range f.Blocks {
		if bi != 0 {
			for k := range in[bi] {
				in[bi][k] = ^uint64(0)
			}
		}
		blockDefs(b, gen[bi*w:(bi+1)*w])
	}
	copy(in[0], entry)
	for changed := true; changed; {
		changed = false
		for bi, b := range f.Blocks {
			succs, ns := b.Succs()
			for _, s := range succs[:ns] {
				for k, g := range gen[bi*w : (bi+1)*w] {
					if v := in[s][k] & (in[bi][k] | g); v != in[s][k] {
						in[s][k], changed = v, true
					}
				}
			}
		}
	}
	return in
}

// splitBits cuts words into nb consecutive sets of w words each.
func splitBits(words []uint64, nb, w int) []Bits {
	sets := make([]Bits, nb)
	for i := range sets {
		sets[i] = words[i*w : (i+1)*w : (i+1)*w]
	}
	return sets
}

// RegDefs adds every register a block writes; the blockDefs callback for
// register-domain MustDefinedIn dataflows.
func RegDefs(b *Block, gen Bits) {
	for ii := range b.Ins {
		if d := b.Ins[ii].Dst; d >= 0 && d>>6 < len(gen) {
			gen.Add(d)
		}
	}
}

// RegsDefBeforeUse reports whether every register read in f is preceded
// by a register write on all paths from entry, parameters counting as
// written. Operands outside the register file count as unwritten.
func (f *Func) RegsDefBeforeUse() bool {
	nr := f.NumRegs
	if nr == 0 {
		return true
	}
	in := f.MustDefinedIn(nr, f.ParamSet(), RegDefs)
	readOK := func(defined Bits, v Value) bool {
		return v.Kind != ValReg || v.Reg >= 0 && v.Reg < nr && defined.Has(v.Reg)
	}
	defined := NewBits(nr)
	for bi, b := range f.Blocks {
		copy(defined, in[bi])
		for ii := range b.Ins {
			ins := &b.Ins[ii]
			if !readOK(defined, ins.A) || !readOK(defined, ins.B) {
				return false
			}
			for _, a := range ins.Args {
				if !readOK(defined, a) {
					return false
				}
			}
			if dst := ins.Dst; dst >= 0 && dst < nr {
				defined.Add(dst)
			}
		}
	}
	return true
}

// ParamSet returns the register set the caller materializes on entry.
func (f *Func) ParamSet() Bits {
	set := NewBits(f.NumRegs)
	for i := range f.Params {
		if i < f.NumRegs {
			set.Add(i)
		}
	}
	return set
}

// MutableRegSet returns a per-register bitmap of the promoted (multiple-
// assignment) registers, sized NumRegs.
func (f *Func) MutableRegSet() []bool {
	set := make([]bool, f.NumRegs)
	for _, pv := range f.Promoted {
		if pv.Reg >= 0 && pv.Reg < f.NumRegs {
			set[pv.Reg] = true
		}
	}
	return set
}

// PromotedType returns the declared type of the variable promoted to reg,
// or nil when reg is not a promoted register.
func (f *Func) PromotedType(reg int) *ctypes.Type {
	for i := range f.Promoted {
		if f.Promoted[i].Reg == reg {
			return f.Promoted[i].Type
		}
	}
	return nil
}

// NewBlock appends a new empty block to f and returns it.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Index: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Emit appends an instruction to the block and returns its index.
func (b *Block) Emit(in Instr) int {
	b.Ins = append(b.Ins, in)
	return len(b.Ins) - 1
}
