package vm

import (
	"repro/internal/ir"
	"repro/internal/sps"
)

// targetClass classifies a control-transfer target address.
type targetClass uint8

const (
	targetFuncEntry targetClass = iota
	targetRetSite
	targetGadget  // inside the code segment, neither entry nor site
	targetData    // mapped non-code memory
	targetInvalid // unmapped
)

func (m *Machine) classifyTarget(addr uint64) targetClass {
	if _, ok := m.funcIndexAt(addr); ok {
		return targetFuncEntry
	}
	if m.isRetSite(addr) {
		return targetRetSite
	}
	lo := uint64(codeBase) + m.slideCode
	if addr >= lo && addr < lo+codeSize {
		return targetGadget
	}
	if m.mem.Mapped(addr) {
		return targetData
	}
	return targetInvalid
}

// hijackTransfer handles a control transfer to an attacker-influenced
// target: the machine "executes" whatever is there, which the simulation
// resolves into the appropriate outcome (shellcode needs an executable
// page, gadgets/valid-code targets hand control to the attacker, garbage
// crashes).
func (m *Machine) hijackTransfer(target uint64, via HijackVia) {
	switch m.classifyTarget(target) {
	case targetFuncEntry, targetRetSite, targetGadget:
		m.trapf(TrapHijacked, target, via, "control flow diverted to %#x", target)
	case targetData:
		if err := m.mem.CheckExec(target); err != nil {
			m.trapf(TrapNXFault, target, via, "%v", err)
			return
		}
		// Writable+executable page: injected shellcode runs.
		m.trapf(TrapHijacked, target, via, "shellcode executed at %#x", target)
	default:
		m.trapf(TrapSegFault, target, via, "jump to unmapped %#x", target)
	}
}

// runHook fires a registered driver hook for function fi, if any. The nil
// check keeps the common no-hooks case free of a map access per call.
func (m *Machine) runHook(fi int) {
	if m.hooks == nil {
		return
	}
	if h := m.hooks[fi]; h != nil {
		h(m)
	}
}

// execCall dispatches a direct call or intrinsic.
func (m *Machine) execCall(f *frame, in *PIns) {
	callee := int(in.Callee)
	if callee < 0 {
		m.execIntrinsic(f, in)
		return
	}
	m.runHook(callee)
	if m.trap != nil {
		return
	}
	m.cycles += m.cfg.Cost.Call
	m.pushFrame(callee, f, in.Args, m.retSiteAddr(in.SiteOrd), f.pc+1, int(in.Dst))
}

func (m *Machine) execICall(f *frame, in *PIns) {
	m.cycles += m.cfg.Cost.ICall
	target, meta := m.evalP(f, &in.A)

	if m.cfg.CFI && in.Flags&ir.ProtCFI != 0 {
		// Coarse-grained CFI: the merged valid set is "any function entry"
		// ([53, 54]); finer sets would still admit the attacks of
		// [19, 15, 9].
		m.cycles += m.cfg.Cost.CFICheck
		if m.classifyTarget(target) != targetFuncEntry {
			m.trapf(TrapCFIViolation, target, ViaICall,
				"indirect call target %#x outside valid set", target)
			return
		}
	}

	if m.caps.transfers && meta.Kind != sps.KindCode {
		// The function pointer was loaded through the enforcement backend
		// (safe store or in-place authentication); a value without code
		// provenance means it was never a legitimately stored code pointer.
		m.trapf(m.caps.trap, target, ViaICall,
			"indirect call through unprotected pointer %#x", target)
		return
	}

	if target == 0 {
		m.trapf(TrapNullCall, 0, ViaICall, "call through null pointer")
		return
	}

	fi, ok := m.funcIndexAt(target)
	if !ok {
		// Not a function entry: attacker-controlled transfer.
		m.hijackTransfer(target, ViaICall)
		return
	}
	m.runHook(fi)
	if m.trap != nil {
		return
	}

	m.pushFrame(fi, f, in.Args, m.retSiteAddr(in.SiteOrd), f.pc+1, int(in.Dst))
}

func (m *Machine) execRet(f *frame, in *PIns) {
	var rv uint64
	var rm Meta
	if in.A.Kind != ir.ValNone {
		rv, rm = m.evalVal(f, &in.A)
	}
	m.retFinish(f, rv, rm)
}

// retFinish performs the return sequence for an already-evaluated return
// value: cookie epilogue, return-address load and validation, frame pop.
func (m *Machine) retFinish(f *frame, rv uint64, rm Meta) {
	m.cycles += m.cfg.Cost.Ret

	// Stack-cookie epilogue: verify the canary before trusting the frame.
	if f.canaryAddr != 0 {
		m.cycles += m.cfg.Cost.CookieCheck
		c, hit := m.mem.TryLoadWord(f.canaryAddr)
		if !hit {
			var err error
			if c, err = m.mem.Load(f.canaryAddr, 8); err != nil {
				m.memFault(err)
				return
			}
		}
		if c != m.canary {
			m.trapf(TrapStackSmash, f.canaryAddr, ViaReturn,
				"canary clobbered (%#x)", c)
			return
		}
	}

	// Load the return address from its in-memory slot — the attack surface
	// when it lives on the regular stack.
	space := m.mem
	if f.retOnSafe {
		space = m.safe
	}
	retWord, hit := space.TryLoadWord(f.retSlot)
	if !hit {
		var err error
		if retWord, err = space.Load(f.retSlot, 8); err != nil {
			m.memFault(err)
			return
		}
	}
	m.cycles += m.cfg.Cost.Load

	if retWord != f.retAddr {
		// Corrupted return address.
		if m.cfg.CFI {
			m.cycles += m.cfg.Cost.CFICheck
			if !m.isRetSite(retWord) {
				m.trapf(TrapCFIViolation, retWord, ViaReturn,
					"return target %#x outside valid set", retWord)
				return
			}
			// A different-but-valid return site: exactly the gadget
			// granularity coarse CFI cannot distinguish [19, 15, 9].
		}
		m.hijackTransfer(retWord, ViaReturn)
		return
	}

	m.popFrame(f, rv, rm)
}

// clearSafeMeta drops shadow metadata for a released safe-stack range so a
// later frame reusing the addresses does not inherit stale bounds.
func (m *Machine) clearSafeMeta(lo, hi uint64) {
	aLo := lo &^ 7
	if aLo < hi {
		// Word slots are indexed downward from safeStackTop, so the
		// highest address maps to the lowest slot.
		top := uint64(safeStackTop) - 8
		maxA := (hi - 1) &^ 7 // last aligned word address < hi
		first := (top - maxA) >> 3
		last := (top - aLo) >> 3 // slot of the first aligned word
		if n := uint64(len(m.safeMetaW)); first < n {
			if last >= n {
				last = n - 1
			}
			clear(m.safeMetaW[first : last+1])
		}
	}
	if len(m.safeMetaU) > 0 { // avoid a map iteration per return
		for a := range m.safeMetaU {
			if a >= lo && a < hi {
				delete(m.safeMetaU, a)
			}
		}
	}
}

// popFrame releases the callee frame and resumes the caller. The record
// itself stays in m.frames' backing array past the truncated length, where
// the next push at this depth recycles it (newFrame).
func (m *Machine) popFrame(f *frame, rv uint64, rm Meta) {
	if f.safeSize > 0 && (len(m.safeMetaW) > 0 || len(m.safeMetaU) > 0) {
		// With no shadow metadata recorded anywhere, the clear is a
		// guaranteed no-op; skipping it keeps metadata-free returns (the
		// common case on register-promoted frames) branch-only.
		m.clearSafeMeta(f.safeBase, f.safeBase+f.safeSize)
	}
	if m.cfg.AuditSensitive {
		// Audit hygiene: drop safe-store entries under the released frame so
		// the next activation at this depth is not blamed for them (audit.go).
		m.auditDropStack(f.regBase, int64(f.regSize))
	}
	m.sp += f.regSize
	m.ssp += f.safeSize
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) == 0 {
		m.cur = nil
		m.exitCode = int64(rv)
		m.trap = &Trap{Kind: TrapExit, PC: "<exit>"}
		return
	}
	caller := m.frames[len(m.frames)-1]
	m.cur = caller
	caller.pc = f.retPC
	if f.dst >= 0 {
		caller.regs[f.dst] = rv
		caller.meta[f.dst] = rm
	}
}
