package vm

import "repro/internal/ir"

// This file is the reference interpreter: every predecoded instruction
// carries a handler chosen once, at predecode time, from its opcode alone —
// plus, for loads and stores, whether the access is plain (no protection
// flag, no audit) or checked. The per-step loop (Machine.Run) performs a
// single indirect call per instruction with no opcode switch. Handlers
// resolve operands through the general evaluators (evalP, evalVal,
// addrSpaceP); the shape-specialised fast paths live only in the
// block-compiled segments (blocks.go), which fall back to these handlers
// for every shape they do not inline and are checked against them
// (PredecodeOptions.NoBlockCompile).
//
// Handlers are machine-independent (they receive the Machine explicitly),
// so a predecoded Code remains shareable across concurrent machines.
//
// The golden determinism tables pin every handler's semantics and cost
// charging.

// handler executes one predecoded instruction (or, as hSeg, one
// block-compiled segment; see blocks.go). It must leave f.pc at the next
// instruction to execute, or set m.trap.
type handler func(m *Machine, f *frame, in *PIns)

// chooseHandler resolves the handler for one predecoded instruction from
// its opcode. Loads and stores with no protection flag take the plain
// handlers unless audit (PredecodeOptions.AuditHooks) is set, which routes
// every access through loadInto/storeFrom so the AuditSensitive provenance
// checks see it.
func chooseHandler(in *PIns, audit bool) handler {
	plain := in.Flags&protMask == 0 && !audit
	switch in.Op {
	case ir.OpNop:
		return hNop
	case ir.OpBin:
		return hBin
	case ir.OpAddr:
		return hAddr
	case ir.OpMov:
		return hMov
	case ir.OpGEP:
		return hGEP
	case ir.OpCast:
		return hCast
	case ir.OpLoad:
		if plain {
			return hLoadPlain
		}
		return hLoad
	case ir.OpStore:
		if plain {
			return hStorePlain
		}
		return hStore
	case ir.OpCall:
		return hCall
	case ir.OpICall:
		return hICall
	case ir.OpRet:
		return hRet
	case ir.OpBr:
		return hBr
	case ir.OpCondBr:
		return hCondBr
	}
	return hBadOp
}

func hNop(m *Machine, f *frame, in *PIns) { f.pc++ }

func hBadOp(m *Machine, f *frame, in *PIns) {
	m.trapf(TrapAbort, 0, ViaNone, "bad opcode %d", in.Op)
}

// ---- OpBin / OpMov ----

func hBin(m *Machine, f *frame, in *PIns) {
	a, _ := m.evalP(f, &in.A)
	b, _ := m.evalP(f, &in.B)
	v, ok := in.ALU.Eval(a, b)
	if !ok {
		m.divZeroTrap()
		return
	}
	f.regs[in.Dst] = v
	f.meta[in.Dst] = invalidMeta
	m.cycles += m.cfg.Cost.Bin
	f.pc++
}

// hMov implements promoted-variable traffic: value and metadata move
// between registers (the metadata copy is what preserves based-on
// provenance when a pointer variable lives in a register instead of a
// safe-stack slot).
func hMov(m *Machine, f *frame, in *PIns) {
	v, meta := m.evalP(f, &in.A)
	f.regs[in.Dst] = v
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.Mov
	f.pc++
}

// ---- OpAddr / OpCast ----

func hAddr(m *Machine, f *frame, in *PIns) {
	v, meta := m.evalP(f, &in.A)
	f.regs[in.Dst] = v
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.Addr
	f.pc++
}

func hCast(m *Machine, f *frame, in *PIns) {
	v, meta := m.evalP(f, &in.A)
	// Metadata propagates through casts (the Levee relaxation for unsafe
	// casts, §4 and Appendix A); char casts truncate.
	if in.CastChar {
		v &= 0xff
	}
	f.regs[in.Dst] = v
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.Cast
	f.pc++
}

// ---- OpGEP ----

// hGEP computes pointer arithmetic with based-on propagation (§3.1 case
// (iv)): the result inherits the base operand's metadata.
func hGEP(m *Machine, f *frame, in *PIns) {
	base, meta := m.evalP(f, &in.A)
	idx, _ := m.evalP(f, &in.B)
	f.regs[in.Dst] = base + idx*uint64(in.Scale) + uint64(in.Off)
	f.meta[in.Dst] = meta
	m.cycles += m.cfg.Cost.GEP
	if m.caps.boundsGEP {
		// Full memory safety propagates bounds metadata on every pointer
		// arithmetic operation (register pressure + moves).
		m.cycles += m.cfg.Cost.SBGEP
	}
	f.pc++
}

// ---- OpLoad / OpStore ----

// evalVal resolves a value operand with the register case — the
// overwhelmingly common shape — kept small enough to inline at every call
// site; constants and the rest go through evalValSlow/evalP.
func (m *Machine) evalVal(f *frame, v *PVal) (uint64, Meta) {
	if v.Kind == ir.ValReg {
		return f.regs[v.Reg], f.meta[v.Reg]
	}
	return m.evalValSlow(f, v)
}

func (m *Machine) evalValSlow(f *frame, v *PVal) (uint64, Meta) {
	if v.Kind == ir.ValConst {
		return v.Imm, invalidMeta
	}
	return m.evalP(f, v)
}

// evalUSlow is evalValSlow for callers that discard the metadata (the
// segment store executors' non-register value operands).
func (m *Machine) evalUSlow(f *frame, v *PVal) uint64 {
	if v.Kind == ir.ValConst {
		return v.Imm
	}
	u, _ := m.evalP(f, v)
	return u
}

// hLoad / hStore take the checked path (loadInto/storeFrom); hLoadPlain /
// hStorePlain skip the flag tests for unflagged accesses. Only register
// addresses are bounds-checkable: direct frame and global operands were
// proven safe statically.

func hLoad(m *Machine, f *frame, in *PIns) {
	addr, meta, onSafe := m.addrSpaceP(f, &in.A)
	m.loadInto(f, in, addr, meta, onSafe, in.A.Kind == ir.ValReg)
}

func hLoadPlain(m *Machine, f *frame, in *PIns) {
	addr, _, onSafe := m.addrSpaceP(f, &in.A)
	m.loadPlainInto(f, addr, onSafe, in.Dst, in.Size)
}

func hStore(m *Machine, f *frame, in *PIns) {
	addr, meta, onSafe := m.addrSpaceP(f, &in.A)
	val, valMeta := m.evalVal(f, &in.B)
	m.storeFrom(f, in, addr, meta, onSafe, in.A.Kind == ir.ValReg, val, valMeta)
}

func hStorePlain(m *Machine, f *frame, in *PIns) {
	addr, _, onSafe := m.addrSpaceP(f, &in.A)
	val, valMeta := m.evalVal(f, &in.B)
	m.storePlainFrom(f, addr, onSafe, val, valMeta, in.Size)
}

// ---- control transfer ----

func hCall(m *Machine, f *frame, in *PIns) { m.execCall(f, in) }

func hICall(m *Machine, f *frame, in *PIns) { m.execICall(f, in) }

func hRet(m *Machine, f *frame, in *PIns) { m.execRet(f, in) }

func hBr(m *Machine, f *frame, in *PIns) {
	f.pc = int(in.Targ0)
	m.cycles += m.cfg.Cost.Br
}

func hCondBr(m *Machine, f *frame, in *PIns) {
	v, _ := m.evalP(f, &in.A)
	if v != 0 {
		f.pc = int(in.Targ0)
	} else {
		f.pc = int(in.Targ1)
	}
	m.cycles += m.cfg.Cost.CondBr
}
