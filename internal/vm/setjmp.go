package vm

// setjmp/longjmp support. A jmp_buf is a program-visible int array in
// regular memory; its first word holds the resume-site code address — a
// code pointer the compiler creates implicitly, hence sensitive (§3.2.1).
// Under CPI/CPS the instrumentation flags the setjmp call and the resume
// address is kept in the safe pointer store, so corrupting the in-memory
// jmp_buf does not divert control. In the unprotected configurations the
// buffer is a classic RIPE attack target.
//
// jmp_buf layout: [0]=resume site address, [1]=frame depth, [2]=regular sp,
// [3]=safe sp (words 4..7 reserved).

// setjmp records a resume point for the setjmp call in.
func (m *Machine) setjmp(f *frame, in *PIns, siteAddr, buf uint64) {
	if siteAddr == 0 {
		m.trapf(TrapAbort, 0, ViaNone, "setjmp site not registered")
		return
	}
	stored := siteAddr
	if m.cfg.PtrMangle {
		stored ^= m.ptrGuard
	}
	words := []uint64{stored, uint64(len(m.frames)), m.sp, m.ssp}
	for i, w := range words {
		if err := m.mem.Store(buf+uint64(i)*8, 8, w); err != nil {
			m.memFault(err)
			return
		}
		m.cycles += m.cfg.Cost.Store
	}
	if m.caps.transfers && in.Flags&m.caps.active != 0 {
		m.enf.setjmpSave(m, buf, siteAddr)
	}
	if in.Dst >= 0 {
		f.regs[in.Dst] = 0 // direct setjmp returns 0
		f.meta[in.Dst] = invalidMeta
	}
	f.pc++
}

func (m *Machine) longjmp(buf, val uint64) {
	// Resume address: from the safe pointer store when protected, else
	// from the attackable in-memory buffer.
	var resume uint64
	if m.caps.transfers {
		r, ok := m.enf.longjmpResume(m, buf)
		if !ok {
			return
		}
		resume = r
	} else {
		v, err := m.mem.Load(buf, 8)
		if err != nil {
			m.memFault(err)
			return
		}
		m.cycles += m.cfg.Cost.Load
		resume = v
		if m.cfg.PtrMangle {
			resume ^= m.ptrGuard
		}
	}

	st, ok := m.jmpSiteAt(resume)
	if !ok {
		// Corrupted resume address: attacker-chosen control transfer.
		m.hijackTransfer(resume, ViaLongjmp)
		return
	}

	depthW, err := m.mem.Load(buf+8, 8)
	if err != nil {
		m.memFault(err)
		return
	}
	spW, err := m.mem.Load(buf+16, 8)
	if err != nil {
		m.memFault(err)
		return
	}
	sspW, err := m.mem.Load(buf+24, 8)
	if err != nil {
		m.memFault(err)
		return
	}
	m.cycles += 3 * m.cfg.Cost.Load

	depth := int(depthW)
	if depth <= 0 || depth > len(m.frames) {
		m.trapf(TrapSegFault, buf, ViaLongjmp, "longjmp to dead or bogus frame depth %d", depth)
		return
	}
	target := m.frames[depth-1]
	if target.fidx != int(st.Fn) {
		// Depth word corrupted to point at a frame that does not match the
		// setjmp site: treated as a diversion attempt.
		m.hijackTransfer(resume, ViaLongjmp)
		return
	}

	// Unwind: the discarded activation records — including the frame
	// executing this longjmp — stay in the backing array past the new
	// length, where newFrame recycles them. Nothing dereferences them
	// after the non-local transfer: execIntrinsic returns straight
	// through the dispatch loop, and newFrame re-zeros recycled register
	// files where needed.
	m.frames = m.frames[:depth]
	m.cur = target
	if spW > m.sp {
		// Audit hygiene: entries under the discarded stack region would
		// otherwise be blamed on later frames reusing the addresses.
		m.auditDropStack(m.sp, int64(spW-m.sp))
	}
	m.sp = spW
	if sspW > m.ssp {
		m.clearSafeMeta(m.ssp, sspW)
	}
	m.ssp = sspW
	target.pc = int(st.PC)
	if st.Dst >= 0 {
		if val == 0 {
			val = 1 // longjmp(buf, 0) resumes setjmp returning 1, per C
		}
		target.regs[st.Dst] = val
		target.meta[st.Dst] = invalidMeta
	}
	m.cycles += m.cfg.Cost.Ret
}
