package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/sps"
)

// Run executes the named entry function (usually "main") to completion and
// returns the result. Run can be called once per Machine.
func (m *Machine) Run(entry string) *Result {
	fi := -1
	for i, f := range m.prog.Funcs {
		if f.Name == entry {
			fi = i
			break
		}
	}
	if fi < 0 {
		return m.finish(&Trap{Kind: TrapAbort, Msg: "no entry function " + entry})
	}
	m.pushFrame(fi, nil, nil, 0, -1, -1)

	// The dispatch loop: one step of bookkeeping, then one indirect call
	// through the handler resolved at predecode time (dispatch.go).
	// Block-compiled segments count their later constituents in the segment
	// runner (blocks.go), so m.steps is always the constituent step count,
	// while disp counts loop round trips. Segment trampoline hops are
	// dispatches the loop never sees (m.extraDisp); the total is what
	// Result.Dispatches reports, so a segment activation costs exactly one
	// dispatch however it was entered. The budget is hoisted to a local —
	// it never changes during a run.
	budget := m.stepBudget
	disp := int64(0)
	for m.trap == nil {
		m.steps++
		disp++
		if m.steps > budget {
			m.trapf(TrapMaxSteps, 0, ViaNone, "after %d steps", m.steps)
			break
		}
		f := m.cur
		in := &f.ins[f.pc]
		in.run(m, f, in)
	}
	m.dispatches = disp + m.extraDisp
	return m.finish(m.trap)
}

func (m *Machine) finish(t *Trap) *Result {
	m.updateMemPeaks()
	if used := int64(stackTop - m.slideStack - m.minSp); used > m.memStats.StackPeak {
		m.memStats.StackPeak = used
	}
	if used := int64(safeStackTop - m.minSsp); used > m.memStats.SafeStack {
		m.memStats.SafeStack = used
	}
	r := &Result{
		Trap:           t.Kind,
		ExitCode:       m.exitCode,
		Cycles:         m.cycles,
		Steps:          m.steps,
		Dispatches:     m.dispatches,
		BlockSteps:     m.blockSteps,
		BlockEntries:   m.blockEntries,
		Output:         m.out.String(),
		DoubleFrees:    m.freeDouble,
		UntrackedFrees: m.freeUntracked,
		SweepRuns:      m.sweepRuns,
		SweepCycles:    m.sweepCycles,
		SweepDropped:   m.sweepDropped,
		Mem:            m.memStats,
		Err:            t,
	}
	if m.enf != nil {
		m.enf.finishStats(r)
	}
	if t.Kind == TrapHijacked {
		r.HijackTarget = t.Target
		r.HijackVia = t.Via
	}
	return r
}

// trapf stops execution.
func (m *Machine) trapf(kind TrapKind, target uint64, via HijackVia, format string, args ...any) {
	if m.trap != nil {
		return
	}
	m.trap = &Trap{
		Kind: kind, Msg: fmt.Sprintf(format, args...),
		Target: target, Via: via, PC: m.pcString(),
	}
}

// memFault converts a memory error into the right trap.
func (m *Machine) memFault(err error) {
	if f, ok := err.(*mem.Fault); ok {
		switch f.Kind {
		case mem.FaultNoExec:
			m.trapf(TrapNXFault, f.Addr, ViaNone, "%v", err)
		default:
			m.trapf(TrapSegFault, f.Addr, ViaNone, "%v", err)
		}
		return
	}
	m.trapf(TrapSegFault, 0, ViaNone, "%v", err)
}

// newFrame obtains the activation record for the next call depth. Records
// are recycled in place: a pop truncates m.frames but leaves the pointer in
// the backing array, so the next push at that depth finds the record the
// last depth-d activation used — which, on the recursive call chains that
// dominate the micro workloads, is almost always the *same function*, so
// the code/register-file geometry is already right and only pc (plus a
// register re-zero for NeedsRegClear functions) needs resetting.
func (m *Machine) newFrame(fi int) *frame {
	n := len(m.frames)
	if n < cap(m.frames) {
		if f := m.frames[:n+1][n]; f != nil {
			if f.fidx == fi {
				f.pc = 0
				if f.code.NeedsRegClear {
					// Some register read is not provably write-preceded;
					// re-zero the recycled file. Proven-clean functions (the
					// common case) skip this: every read sees a written
					// register anyway.
					clear(f.regs)
					clear(f.meta)
				}
				return f
			}
			return m.initFrame(f, fi)
		}
	}
	return m.initFrame(&frame{}, fi)
}

// initFrame points an activation record (fresh, or recycled from a
// different function) at function fi and sizes its register file.
func (m *Machine) initFrame(f *frame, fi int) *frame {
	f.pc = 0
	fn := m.prog.Funcs[fi]
	f.fn = fn
	f.code = &m.code.Funcs[fi]
	f.ins = f.code.Ins
	f.fidx = fi
	nr := fn.NumRegs
	if cap(f.regs) < nr {
		f.regs = make([]uint64, nr)
		f.meta = make([]Meta, nr)
	} else {
		f.regs = f.regs[:nr]
		f.meta = f.meta[:nr]
		if f.code.NeedsRegClear {
			clear(f.regs)
			clear(f.meta)
		}
	}
	return f
}

// pushFrame establishes a new activation record and charges frame-setup
// costs. The argument list is evaluated against the caller's frame directly
// into the callee's registers (nil caller/args for the entry frame).
// retAddr is the code address of the caller's return site (0 for the entry
// frame), retPC the caller pc to resume at (-1 for the entry frame). The
// frame layout itself was computed once per function at load (frameInfo).
func (m *Machine) pushFrame(fi int, caller *frame, args []PVal, retAddr uint64, retPC, dst int) {
	if len(m.frames) >= m.cfg.MaxCallDepth {
		m.trapf(TrapStackOverflow, 0, ViaNone, "call depth %d", len(m.frames))
		return
	}
	f := m.newFrame(fi)
	fn := f.fn
	f.retPC = retPC
	f.dst = dst
	if len(args) > 0 {
		m.cycles += int64(len(args)) * m.cfg.Cost.Arg
		for i := range args {
			if i < len(f.regs) {
				// Register and constant arguments (nearly all of them)
				// resolve inline; everything else through evalP.
				switch a := &args[i]; a.Kind {
				case ir.ValReg:
					f.regs[i], f.meta[i] = caller.regs[a.Reg], caller.meta[a.Reg]
				case ir.ValConst:
					f.regs[i], f.meta[i] = a.Imm, invalidMeta
				default:
					f.regs[i], f.meta[i] = m.evalP(caller, a)
				}
			}
		}
	}
	// Zero-fill any arity gap so parameter registers are always
	// materialized (the def-before-use analysis counts them as written).
	for i := len(args); i < len(fn.Params) && i < len(f.regs); i++ {
		f.regs[i] = 0
		f.meta[i] = Meta{}
	}

	info := &m.finfo[fi]
	f.canaryAddr = 0

	regularTotal := info.regularTotal
	if regularTotal > 0 {
		if m.sp < m.stackFloor+regularTotal {
			m.trapf(TrapStackOverflow, m.sp, ViaNone, "regular stack exhausted")
			return
		}
		m.sp -= regularTotal
	}
	f.regBase = m.sp
	if info.safeTotal > 0 {
		if m.ssp < uint64(safeStackTop)-stackMax+info.safeTotal {
			m.trapf(TrapStackOverflow, m.ssp, ViaNone, "safe stack exhausted")
			return
		}
		m.ssp -= info.safeTotal
	}
	f.safeBase = m.ssp
	f.regSize = regularTotal
	f.safeSize = info.safeTotal

	// Return address slot: the word an attacker aims for when it lives on
	// the regular stack.
	f.retAddr = retAddr
	f.retOnSafe = info.retOnSafe
	if info.retOnSafe {
		f.retSlot = f.safeBase + uint64(fn.SafeSize)
		if !m.safe.TryStoreWord(f.retSlot, f.retAddr) {
			if err := m.safe.Store(f.retSlot, 8, f.retAddr); err != nil {
				m.memFault(err)
				return
			}
		}
	} else {
		f.retSlot = f.regBase + info.objBytes
		if info.cookie {
			f.canaryAddr = f.regBase + info.objBytes
			f.retSlot = f.canaryAddr + 8
			if !m.mem.TryStoreWord(f.canaryAddr, m.canary) {
				if err := m.mem.Store(f.canaryAddr, 8, m.canary); err != nil {
					m.memFault(err)
					return
				}
			}
			m.cycles += m.cfg.Cost.CookieSet
		}
		if !m.mem.TryStoreWord(f.retSlot, f.retAddr) {
			if err := m.mem.Store(f.retSlot, 8, f.retAddr); err != nil {
				m.memFault(err)
				return
			}
		}
	}

	if !m.caps.safeStack {
		f.safeBase = f.regBase // "safe-space" objects live on the regular stack
	}
	if fn.NeedsUnsafeFrame {
		m.cycles += m.cfg.Cost.UnsafeFrame
	}
	if n := len(m.frames); n < cap(m.frames) && m.frames[:cap(m.frames)][n] == f {
		// Recycled frame record (newFrame): extend the slice without
		// re-storing the pointer, sparing the GC write barrier on the
		// hottest push path.
		m.frames = m.frames[:n+1]
	} else {
		m.frames = append(m.frames, f)
	}
	m.cur = f
	m.notePushPeaks(m.sp, m.ssp)
}

// objAddr resolves a frame object's address and which address space it
// lives in.
func (m *Machine) objAddr(f *frame, idx int) (uint64, bool) {
	obj := f.fn.Frame[idx]
	if obj.Unsafe {
		return f.regBase + uint64(obj.Offset), false
	}
	if m.caps.safeStack {
		return f.safeBase + uint64(obj.Offset), true
	}
	return f.safeBase + uint64(obj.Offset), false
}

// evalP resolves a predecoded operand to (value, metadata). Object layout
// was resolved at predecode time; only the machine-dependent bases are
// looked up here.
func (m *Machine) evalP(f *frame, v *PVal) (uint64, Meta) {
	switch v.Kind {
	case ir.ValNone:
		return 0, invalidMeta
	case ir.ValReg:
		return f.regs[v.Reg], f.meta[v.Reg]
	case ir.ValConst:
		return v.Imm, invalidMeta
	case ir.ValFrame:
		base := f.safeBase
		if v.Unsafe {
			base = f.regBase
		}
		addr := base + uint64(v.ObjOff)
		return addr + v.Imm, Meta{
			Kind: sps.KindData, Lower: addr, Upper: addr + uint64(v.Size),
		}
	case ir.ValGlobal:
		gm := m.globalMeta(v)
		return gm.Lower + v.Imm, gm
	case ir.ValFunc:
		a := m.funcAddr(int(v.Index))
		return a, Meta{Kind: sps.KindCode, Lower: a, Upper: a}
	case ir.ValString:
		sb := m.strAddr(int(v.Index))
		return sb + v.Imm, Meta{
			Kind: sps.KindData, Lower: sb, Upper: sb + uint64(v.Size),
		}
	}
	panic("vm: bad value kind")
}

// addrSpaceP resolves a predecoded address operand, additionally reporting
// whether it names a safe-stack object (whose accesses go to the safe
// address space).
func (m *Machine) addrSpaceP(f *frame, v *PVal) (addr uint64, meta Meta, safe bool) {
	if v.Kind == ir.ValFrame {
		base := f.safeBase
		if v.Unsafe {
			base = f.regBase
		}
		a := base + uint64(v.ObjOff)
		return a + v.Imm, Meta{
			Kind: sps.KindData, Lower: a, Upper: a + uint64(v.Size),
		}, !v.Unsafe && m.caps.safeStack
	}
	addr, meta = m.evalP(f, v)
	return addr, meta, false
}

func aluEval(op ir.ALU, ua, ub uint64) (uint64, error) {
	a, b := int64(ua), int64(ub)
	boolv := func(c bool) uint64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case ir.AAdd:
		return ua + ub, nil
	case ir.ASub:
		return ua - ub, nil
	case ir.AMul:
		return uint64(a * b), nil
	case ir.ADiv:
		if b == 0 {
			return 0, errDiv
		}
		return uint64(a / b), nil
	case ir.ARem:
		if b == 0 {
			return 0, errDiv
		}
		return uint64(a % b), nil
	case ir.AAnd:
		return ua & ub, nil
	case ir.AOr:
		return ua | ub, nil
	case ir.AXor:
		return ua ^ ub, nil
	case ir.AShl:
		return ua << (ub & 63), nil
	case ir.AShr:
		return uint64(a >> (ub & 63)), nil
	case ir.ALt:
		return boolv(a < b), nil
	case ir.AGt:
		return boolv(a > b), nil
	case ir.ALe:
		return boolv(a <= b), nil
	case ir.AGe:
		return boolv(a >= b), nil
	case ir.AEq:
		return boolv(ua == ub), nil
	case ir.ANe:
		return boolv(ua != ub), nil
	}
	return 0, errDiv
}

var errDiv = fmt.Errorf("division by zero")
