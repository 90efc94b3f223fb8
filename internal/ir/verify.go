package ir

import "fmt"

// Verify checks structural invariants of the program:
//
//   - every block ends with exactly one terminator, in final position;
//   - every non-promoted register is defined by exactly one instruction
//     (single assignment) and register numbers are within NumRegs;
//   - promoted (mutable) registers — the ones Func.Promoted lists — may be
//     assigned any number of times, but every read of one must be preceded
//     by a write on all paths from entry (def-before-use across blocks, the
//     invariant the register promotion pass guarantees by refusing to
//     promote variables with a potentially uninitialized read);
//   - branch targets, frame indices, global/string/function indices are in
//     range;
//   - load/store sizes are 1 or 8;
//   - protection flags sit only on instructions whose handlers honor them:
//     CPI/CPS/SoftBound memory flags on loads and stores (plus the setjmp
//     intrinsic, whose implicit code pointer they cover), ProtSafeIntr on
//     intrinsic calls, ProtCFI on indirect calls — and, once the safe-stack
//     pass has run, never on a direct access to a safe-stack-resident
//     object, which the escape analysis already proved isolated.
//
// The passes rely on these invariants (notably single assignment, which the
// safe-stack escape analysis uses to reason about address flow; promoted
// registers carry their declared type in Func.Promoted instead).
func (p *Program) Verify() error {
	for _, f := range p.Funcs {
		if err := p.verifyFunc(f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	for gi, g := range p.Globals {
		for _, it := range g.Init {
			if it.Offset < 0 || it.Offset+it.Size > g.Size {
				return fmt.Errorf("global %s: init item out of range [%d,%d) of %d",
					g.Name, it.Offset, it.Offset+it.Size, g.Size)
			}
			switch it.Kind {
			case InitFuncAddr:
				if it.Index < 0 || it.Index >= len(p.Funcs) {
					return fmt.Errorf("global %s: bad func index %d", g.Name, it.Index)
				}
			case InitGlobalAddr:
				if it.Index < 0 || it.Index >= len(p.Globals) {
					return fmt.Errorf("global %s: bad global index %d", g.Name, it.Index)
				}
			case InitStringAddr:
				if it.Index < 0 || it.Index >= len(p.Strings) {
					return fmt.Errorf("global %s: bad string index %d", g.Name, it.Index)
				}
			}
		}
		_ = gi
	}
	return nil
}

func (p *Program) verifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	safeStack := false
	for _, pass := range p.Protection {
		if pass == "safestack" {
			safeStack = true
		}
	}
	mutable := f.MutableRegSet()
	for _, pv := range f.Promoted {
		if pv.Reg < 0 || pv.Reg >= f.NumRegs {
			return fmt.Errorf("promoted var %s register r%d out of range", pv.Name, pv.Reg)
		}
	}
	defined := make([]bool, f.NumRegs)
	for i := range f.Params {
		if i >= f.NumRegs {
			return fmt.Errorf("param %d exceeds NumRegs %d", i, f.NumRegs)
		}
		defined[i] = true
	}

	checkVal := func(v Value) error {
		switch v.Kind {
		case ValReg:
			if v.Reg < 0 || v.Reg >= f.NumRegs {
				return fmt.Errorf("register r%d out of range", v.Reg)
			}
		case ValFrame:
			if v.Index < 0 || v.Index >= len(f.Frame) {
				return fmt.Errorf("frame index %d out of range", v.Index)
			}
			if v.Imm < 0 || v.Imm >= f.Frame[v.Index].Size {
				return fmt.Errorf("frame offset %d out of bounds for %s (size %d)",
					v.Imm, f.Frame[v.Index].Name, f.Frame[v.Index].Size)
			}
		case ValGlobal:
			if v.Index < 0 || v.Index >= len(p.Globals) {
				return fmt.Errorf("global index %d out of range", v.Index)
			}
		case ValFunc:
			if v.Index < 0 || v.Index >= len(p.Funcs) {
				return fmt.Errorf("function index %d out of range", v.Index)
			}
		case ValString:
			if v.Index < 0 || v.Index >= len(p.Strings) {
				return fmt.Errorf("string index %d out of range", v.Index)
			}
		}
		return nil
	}

	for bi, blk := range f.Blocks {
		if blk.Index != bi {
			return fmt.Errorf("block %d has index %d", bi, blk.Index)
		}
		if len(blk.Ins) == 0 {
			return fmt.Errorf("block .%d is empty", bi)
		}
		for ii := range blk.Ins {
			in := &blk.Ins[ii]
			last := ii == len(blk.Ins)-1
			if in.IsTerm() != last {
				return fmt.Errorf("block .%d instr %d: terminator placement", bi, ii)
			}
			if in.Dst >= 0 {
				if in.Dst >= f.NumRegs {
					return fmt.Errorf("block .%d instr %d: dst r%d out of range", bi, ii, in.Dst)
				}
				if defined[in.Dst] && !mutable[in.Dst] {
					return fmt.Errorf("block .%d instr %d: r%d assigned twice", bi, ii, in.Dst)
				}
				defined[in.Dst] = true
			}
			for _, v := range []Value{in.A, in.B} {
				if err := checkVal(v); err != nil {
					return fmt.Errorf("block .%d instr %d: %w", bi, ii, err)
				}
			}
			for _, v := range in.Args {
				if err := checkVal(v); err != nil {
					return fmt.Errorf("block .%d instr %d: %w", bi, ii, err)
				}
			}
			if err := verifyFlags(f, in, safeStack); err != nil {
				return fmt.Errorf("block .%d instr %d: %w", bi, ii, err)
			}
			switch in.Op {
			case OpLoad, OpStore:
				if in.Size != 1 && in.Size != 8 {
					return fmt.Errorf("block .%d instr %d: bad access size %d", bi, ii, in.Size)
				}
				if in.Ty == nil {
					return fmt.Errorf("block .%d instr %d: memory op without type", bi, ii)
				}
			case OpBr:
				if in.Blk0 < 0 || in.Blk0 >= len(f.Blocks) {
					return fmt.Errorf("block .%d: branch target .%d out of range", bi, in.Blk0)
				}
			case OpCondBr:
				if in.Blk0 < 0 || in.Blk0 >= len(f.Blocks) ||
					in.Blk1 < 0 || in.Blk1 >= len(f.Blocks) {
					return fmt.Errorf("block .%d: branch targets out of range", bi)
				}
			case OpCall:
				if in.Callee >= len(p.Funcs) {
					return fmt.Errorf("block .%d instr %d: callee %d out of range", bi, ii, in.Callee)
				}
			case OpMov:
				if in.Dst < 0 {
					return fmt.Errorf("block .%d instr %d: mov without destination", bi, ii)
				}
			}
		}
	}
	if len(f.Promoted) > 0 {
		return f.verifyDefBeforeUse(mutable)
	}
	return nil
}

// memProt is every protection flag whose semantics attach to a memory
// access (value/metadata routed through the safe pointer store, bounds
// checks on the dereferenced address).
const memProt = ProtCPIStore | ProtCPILoad | ProtCPICheck | ProtCPS |
	ProtUniversal | ProtSB | ProtSBCheck | ProtAnnotated

// verifyFlags enforces protection-flag well-formedness: every flag must sit
// on an instruction whose execution handler honors it, or the protection it
// promises silently never happens. Loads and stores take the memory flags;
// intrinsic calls take ProtSafeIntr plus the store flags setjmp needs for
// its implicit resume-address code pointer; indirect calls take ProtCFI.
// After the safe-stack pass, a direct access to a safe-stack-resident
// object must carry no flags at all — the escape analysis proved the slot
// unreachable from unsafe code, and instrumenting it would both waste
// cycles and double-count the object in the safe pointer store.
func verifyFlags(f *Func, in *Instr, safeStack bool) error {
	if in.Flags == 0 {
		return nil
	}
	switch in.Op {
	case OpLoad, OpStore:
		if bad := in.Flags &^ memProt; bad != 0 {
			return fmt.Errorf("memory op carries non-memory protection flags %#x", uint16(bad))
		}
		if safeStack && in.A.Kind == ValFrame && !f.Frame[in.A.Index].Unsafe {
			return fmt.Errorf("direct safe-stack access to %s carries protection flags %#x",
				f.Frame[in.A.Index].Name, uint16(in.Flags))
		}
	case OpCall:
		if in.Callee >= 0 {
			return fmt.Errorf("direct call carries protection flags %#x", uint16(in.Flags))
		}
		if bad := in.Flags &^ (ProtSafeIntr | ProtCPIStore | ProtCPS); bad != 0 {
			return fmt.Errorf("intrinsic call carries unexpected protection flags %#x", uint16(bad))
		}
	case OpICall:
		if bad := in.Flags &^ ProtCFI; bad != 0 {
			return fmt.Errorf("indirect call carries unexpected protection flags %#x", uint16(bad))
		}
	default:
		return fmt.Errorf("op %d carries protection flags %#x", in.Op, uint16(in.Flags))
	}
	return nil
}

// verifyDefBeforeUse enforces the promoted-register invariant: every read of
// a mutable register must be preceded by a write on all paths from entry
// (MustDefinedIn over the register domain; parameters count as written
// because the caller materializes them).
func (f *Func) verifyDefBeforeUse(mutable []bool) error {
	nr := f.NumRegs
	in := f.MustDefinedIn(nr, f.ParamSet(), RegDefs)
	defined := NewBits(nr)
	for bi, b := range f.Blocks {
		copy(defined, in[bi])
		check := func(v Value, ii int) error {
			if v.Kind == ValReg && v.Reg >= 0 && v.Reg < nr &&
				mutable[v.Reg] && !defined.Has(v.Reg) {
				return fmt.Errorf("block .%d instr %d: promoted r%d read before write on some path",
					bi, ii, v.Reg)
			}
			return nil
		}
		for ii := range b.Ins {
			ins := &b.Ins[ii]
			if err := check(ins.A, ii); err != nil {
				return err
			}
			if err := check(ins.B, ii); err != nil {
				return err
			}
			for _, a := range ins.Args {
				if err := check(a, ii); err != nil {
					return err
				}
			}
			if d := ins.Dst; d >= 0 && d < nr {
				defined.Add(d)
			}
		}
	}
	return nil
}
