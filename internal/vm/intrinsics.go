package vm

import (
	"strconv"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/minic/builtins"
	"repro/internal/sps"
)

// execIntrinsic dispatches builtin library calls. The memory-manipulation
// intrinsics are the §3.2.2 cases: when the instrumentation pass could not
// prove the arguments insensitive it sets ProtSafeIntr and the safe-region-
// aware variant runs (per-word safe pointer store maintenance, the measured
// source of memcpy-related CPI overhead).
func (m *Machine) execIntrinsic(f *frame, pin *PIns) {
	in := pin.In
	dst, flags := pin.Dst, pin.Flags
	cost := &m.cfg.Cost
	m.cycles += cost.IntrBase

	arg := func(i int) uint64 {
		if i >= len(pin.Args) {
			return 0
		}
		v, _ := m.evalP(f, &pin.Args[i])
		return v
	}
	setDst := func(v uint64, meta Meta) {
		if dst >= 0 {
			f.regs[dst] = v
			f.meta[dst] = meta
		}
	}
	done := func() { f.pc++ }

	switch in.Intr {
	case builtins.Malloc, builtins.Calloc:
		n := int64(arg(0))
		if in.Intr == builtins.Calloc {
			n = int64(arg(0)) * int64(arg(1))
		}
		addr, ok := m.malloc(n)
		if !ok {
			setDst(0, invalidMeta)
			done()
			return
		}
		if in.Intr == builtins.Calloc {
			m.zero(addr, n)
			m.cycles += n / 8 * cost.IntrByte
		}
		m.cycles += cost.Alloc
		setDst(addr, Meta{Kind: sps.KindData, Lower: addr, Upper: addr + uint64(n),
			ID: m.allocs[addr].id})
		done()

	case builtins.Free:
		m.free(arg(0), flags&ir.ProtSafeIntr != 0)
		m.cycles += cost.Alloc
		setDst(0, invalidMeta)
		done()

	case builtins.Memcpy, builtins.Memmove:
		dst, src, n := arg(0), arg(1), int64(arg(2))
		if lim := m.fortifyLimit(f, pin, 0); lim >= 0 && n > lim {
			m.fortifyFail("memcpy")
			return
		}
		if !m.memcpy(dst, src, n, flags&ir.ProtSafeIntr != 0) {
			return
		}
		setDst(dst, m.argMeta(f, pin, 0))
		done()

	case builtins.Memset:
		dst, c, n := arg(0), byte(arg(1)), int64(arg(2))
		if lim := m.fortifyLimit(f, pin, 0); lim >= 0 && n > lim {
			m.fortifyFail("memset")
			return
		}
		if !m.memset(dst, c, n, flags&ir.ProtSafeIntr != 0) {
			return
		}
		setDst(dst, m.argMeta(f, pin, 0))
		done()

	case builtins.Memcmp:
		a, b, n := arg(0), arg(1), int64(arg(2))
		r, ok := m.memcmp(a, b, n)
		if !ok {
			return
		}
		m.cycles += n / 8 * cost.IntrByte
		setDst(uint64(r), invalidMeta)
		done()

	case builtins.Strcpy:
		if !m.strcpyChk(arg(0), arg(1), -1, m.fortifyLimit(f, pin, 0), "strcpy") {
			return
		}
		setDst(arg(0), m.argMeta(f, pin, 0))
		done()

	case builtins.Strncpy:
		if !m.strcpyChk(arg(0), arg(1), int64(arg(2)), m.fortifyLimit(f, pin, 0), "strncpy") {
			return
		}
		setDst(arg(0), m.argMeta(f, pin, 0))
		done()

	case builtins.Strcat, builtins.Strncat:
		dst := arg(0)
		dlen, ok := m.strlen(dst)
		if !ok {
			return
		}
		max := int64(-1)
		if in.Intr == builtins.Strncat {
			max = int64(arg(2))
		}
		lim := m.fortifyLimit(f, pin, 0)
		if lim >= 0 {
			lim -= dlen
		}
		if !m.strcpyChk(dst+uint64(dlen), arg(1), max, lim, "strcat") {
			return
		}
		setDst(dst, m.argMeta(f, pin, 0))
		done()

	case builtins.Strcmp, builtins.Strncmp:
		max := int64(-1)
		if in.Intr == builtins.Strncmp {
			max = int64(arg(2))
		}
		r, ok := m.strcmp(arg(0), arg(1), max)
		if !ok {
			return
		}
		setDst(uint64(r), invalidMeta)
		done()

	case builtins.Strlen:
		n, ok := m.strlen(arg(0))
		if !ok {
			return
		}
		m.cycles += n / 8 * cost.IntrByte
		setDst(uint64(n), invalidMeta)
		done()

	case builtins.Printf:
		s, ok := m.format(f, pin, 0)
		if !ok {
			return
		}
		m.out.Write(s)
		m.cycles += int64(len(s)) / 8 * cost.IntrByte
		setDst(uint64(len(s)), invalidMeta)
		done()

	case builtins.Puts:
		s, ok := m.appendCStr(m.strBuf[:0], arg(0))
		if !ok {
			return
		}
		m.strBuf = s
		m.out.Write(s)
		m.out.WriteByte('\n')
		setDst(uint64(len(s)+1), invalidMeta)
		done()

	case builtins.Putchar:
		m.out.WriteByte(byte(arg(0)))
		setDst(arg(0), invalidMeta)
		done()

	case builtins.Sprintf, builtins.Snprintf:
		fmtIdx := 1
		max := int64(-1)
		if in.Intr == builtins.Snprintf {
			fmtIdx = 2
			max = int64(arg(1))
		}
		s, ok := m.format(f, pin, fmtIdx)
		if !ok {
			return
		}
		if max >= 0 && int64(len(s)) >= max {
			if max == 0 {
				s = s[:0]
			} else {
				s = s[:max-1]
			}
		}
		if lim := m.fortifyLimit(f, pin, 0); lim >= 0 && int64(len(s))+1 > lim {
			m.fortifyFail("sprintf")
			return
		}
		// sprintf writes unbounded into dst: a classic overflow vector.
		if err := m.mem.WriteBytes(arg(0), append(s, 0)); err != nil {
			m.memFault(err)
			return
		}
		m.cycles += int64(len(s)) / 8 * cost.IntrByte
		setDst(uint64(len(s)), invalidMeta)
		done()

	case builtins.Sscanf:
		n, ok := m.sscanf(f, pin)
		if !ok {
			return
		}
		setDst(uint64(n), invalidMeta)
		done()

	case builtins.Atoi:
		s, ok := m.cstr(arg(0))
		if !ok {
			return
		}
		v, _ := strconv.ParseInt(trimNum(s), 10, 64)
		setDst(uint64(v), invalidMeta)
		done()

	case builtins.Abs:
		v := int64(arg(0))
		if v < 0 {
			v = -v
		}
		setDst(uint64(v), invalidMeta)
		done()

	case builtins.Rand:
		m.randState = m.randState*6364136223846793005 + 1442695040888963407
		setDst((m.randState>>33)&0x7fffffff, invalidMeta)
		done()

	case builtins.Srand:
		m.randState = arg(0)*2862933555777941757 + 3037000493
		setDst(0, invalidMeta)
		done()

	case builtins.Exit:
		m.exitCode = int64(arg(0))
		m.trap = &Trap{Kind: TrapExit, PC: m.pcString()}

	case builtins.Abort:
		m.trapf(TrapAbort, 0, ViaNone, "abort() called")

	case builtins.Setjmp:
		m.setjmp(f, pin, m.jmpSiteAddr(pin.SiteOrd), arg(0))

	case builtins.Longjmp:
		m.longjmp(arg(0), arg(1))

	case builtins.ReadInput:
		buf, n := arg(0), int64(arg(1))
		data := m.cfg.Input
		if int64(len(data)) > n {
			data = data[:n]
		}
		if err := m.mem.WriteBytes(buf, data); err != nil {
			m.memFault(err)
			return
		}
		m.cycles += int64(len(data)) / 8 * cost.IntrByte
		setDst(uint64(len(data)), invalidMeta)
		done()

	case builtins.InputLen:
		setDst(uint64(len(m.cfg.Input)), invalidMeta)
		done()

	case builtins.Getenv:
		setDst(0, invalidMeta)
		done()

	case builtins.Clock:
		setDst(uint64(m.cycles), invalidMeta)
		done()

	default:
		m.trapf(TrapAbort, 0, ViaNone, "unknown intrinsic %v", in.Intr)
	}
}

// fortifyLimit returns the FORTIFY bound for a destination argument: the
// remaining bytes of the destination object when known (glibc
// __builtin_object_size semantics), or -1 when unknown.
func (m *Machine) fortifyLimit(f *frame, pin *PIns, i int) int64 {
	if !m.cfg.Fortify || i >= len(pin.Args) {
		return -1
	}
	addr, meta := m.evalP(f, &pin.Args[i])
	if meta.Kind != sps.KindData || addr < meta.Lower || addr >= meta.Upper {
		return -1
	}
	return int64(meta.Upper - addr)
}

// fortifyFail aborts with the glibc *_chk diagnostic.
func (m *Machine) fortifyFail(name string) {
	m.trapf(TrapFortify, 0, ViaNone, "*** %s_chk: buffer overflow detected ***", name)
}

// argMeta returns the metadata of the i-th argument.
func (m *Machine) argMeta(f *frame, pin *PIns, i int) Meta {
	if i >= len(pin.Args) {
		return invalidMeta
	}
	_, meta := m.evalP(f, &pin.Args[i])
	return meta
}

// ---- heap ----

func (m *Machine) malloc(n int64) (uint64, bool) {
	if n <= 0 {
		n = 1
	}
	n = (n + 15) &^ 15
	m.nextID++
	// Exact-size free-list reuse: realistic allocator behaviour that makes
	// use-after-free attacks possible in the unprotected configuration.
	if lst := m.freeLst[n]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		m.freeLst[n] = lst[:len(lst)-1]
		a := m.allocs[addr]
		a.freed = false
		a.id = m.nextID
		m.heapLive += n
		m.updateMemPeaks()
		return addr, true
	}
	addr := m.heapBrk
	end := addr + uint64(n)
	if end > heapBase+m.slideHeap+heapMax {
		m.trapf(TrapOOM, addr, ViaNone, "heap exhausted")
		return 0, false
	}
	dataPerm := mem.R | mem.W
	if !m.cfg.DEP {
		dataPerm |= mem.X
	}
	m.mem.Map(addr, uint64(n), dataPerm)
	m.heapBrk = end
	var a *allocation
	if p := len(m.allocPool); p > 0 {
		// Recycled record from a previous pooled run (Reset harvests them;
		// free cannot — freed records stay in allocs for temporal checks).
		a = m.allocPool[p-1]
		m.allocPool = m.allocPool[:p-1]
	} else {
		a = &allocation{}
	}
	*a = allocation{addr: addr, size: n, id: m.nextID}
	m.allocs[addr] = a
	m.heapLive += n
	m.updateMemPeaks()
	return addr, true
}

// freeListCap bounds each exact-size free list. Long steady-state runs
// free far more blocks than they will ever reuse at once; beyond the cap
// the address is retired (returned to the OS, in real-allocator terms)
// instead of being kept reusable forever, so the per-size lists cannot
// balloon host memory across scaled workloads.
const freeListCap = 64

// free releases an allocation; the safe variant (a free site the
// instrumentation pass could not prove insensitive) additionally invalidates
// the safe-pointer-store entries covering the released object — otherwise a
// sensitive pointer stored there before the free leaves a dangling entry
// that still validates when the allocator reuses the address (§3.2.2's
// invalid-metadata rule applied at deallocation time). Invalidation is
// page-granular: one DropPages call releases whole occupied shadow pages /
// second-level tables and is charged per occupied unit plus a small
// constant — never per word of the freed region, which for a large mostly
// insensitive pool would swamp the run with invalidation cycles the real
// page-organized safe region does not pay.
//
// Double frees and frees of untracked (interior or foreign) addresses stay
// lenient — the allocator absorbs them, like most production allocators —
// but under the protected configurations the event is counted and surfaced
// in Result, since deallocation hygiene is exactly what the temporal-safety
// machinery keys on.
func (m *Machine) free(addr uint64, safeVariant bool) {
	if addr == 0 {
		return // free(NULL) is a defined no-op
	}
	a := m.allocs[addr]
	if a == nil || a.freed {
		if m.enf != nil {
			if a == nil {
				m.freeUntracked++
			} else {
				m.freeDouble++
			}
		}
		return // lenient, like most allocators
	}
	if !safeVariant && m.cfg.AuditSensitive && !m.auditRange(addr, a.size, "free") {
		return
	}
	a.freed = true
	m.heapLive -= a.size
	if lst := m.freeLst[a.size]; len(lst) < freeListCap {
		m.freeLst[a.size] = append(lst, addr)
	}
	if safeVariant && m.enf != nil {
		m.enf.dropRange(m, addr, int(a.size/8))
	}
}

// zero clears freshly allocated memory (calloc) through the page-chunked
// fill fast path — no scratch buffer allocation, whatever the size.
func (m *Machine) zero(addr uint64, n int64) {
	if n <= 0 {
		return
	}
	if err := m.mem.Fill(addr, 0, n); err != nil {
		m.memFault(err)
	}
}

// ---- memory intrinsics ----

// memcpy copies n bytes; the safe variant additionally migrates safe
// pointer store entries for each covered word (cost per word).
func (m *Machine) memcpy(dst, src uint64, n int64, safeVariant bool) bool {
	if n <= 0 {
		return true
	}
	// Plain variant: the instrumentation proved both ranges insensitive.
	// The audit oracle verifies the proof against live entries.
	if !safeVariant && m.cfg.AuditSensitive && (!m.auditRange(src, n, "memcpy source") || !m.auditRange(dst, n, "memcpy destination")) {
		return false
	}
	if err := m.mem.Move(dst, src, int(n)); err != nil {
		m.memFault(err)
		return false
	}
	m.cycles += (n/8 + 1) * m.cfg.Cost.IntrByte
	if safeVariant && m.enf != nil {
		m.enf.copyRange(m, dst, src, int(n/8))
	}
	return true
}

func (m *Machine) memset(dst uint64, c byte, n int64, safeVariant bool) bool {
	if n <= 0 {
		return true
	}
	if !safeVariant && m.cfg.AuditSensitive && !m.auditRange(dst, n, "memset") {
		return false
	}
	// Page-chunked in-place fill: no n-byte scratch slice per call.
	if err := m.mem.Fill(dst, c, n); err != nil {
		m.memFault(err)
		return false
	}
	m.cycles += (n/8 + 1) * m.cfg.Cost.IntrByte
	if safeVariant && m.enf != nil {
		m.enf.clearRange(m, dst, int(n/8))
	}
	return true
}

func (m *Machine) memcmp(a, b uint64, n int64) (int64, bool) {
	ba, err := m.mem.ReadBytes(a, int(n))
	if err != nil {
		m.memFault(err)
		return 0, false
	}
	bb, err := m.mem.ReadBytes(b, int(n))
	if err != nil {
		m.memFault(err)
		return 0, false
	}
	for i := int64(0); i < n; i++ {
		if ba[i] != bb[i] {
			return int64(ba[i]) - int64(bb[i]), true
		}
	}
	return 0, true
}

// strcpyChk is strcpy with an optional FORTIFY destination limit.
func (m *Machine) strcpyChk(dst, src uint64, max, lim int64, name string) bool {
	if lim >= 0 && (max < 0 || max > lim) {
		// Determine the copy length first, as __strcpy_chk does.
		n, ok := m.strlen(src)
		if !ok {
			return false
		}
		if max >= 0 && n > max {
			n = max
		}
		if n+1 > lim {
			m.fortifyFail(name)
			return false
		}
	}
	return m.strcpy(dst, src, max, true)
}

// strcpy copies src to dst up to NUL (or max bytes when max >= 0). It is
// deliberately unbounded when max < 0 — the classic overflow.
func (m *Machine) strcpy(dst, src uint64, max int64, nulTerm bool) bool {
	var i int64
	for {
		if max >= 0 && i >= max {
			return true
		}
		c, err := m.mem.Load(src+uint64(i), 1)
		if err != nil {
			m.memFault(err)
			return false
		}
		if err := m.mem.Store(dst+uint64(i), 1, c); err != nil {
			m.memFault(err)
			return false
		}
		m.cycles += m.cfg.Cost.IntrByte / 4
		if c == 0 {
			return true
		}
		i++
		if i > 1<<20 {
			m.trapf(TrapSegFault, src, ViaNone, "runaway string copy")
			return false
		}
	}
}

func (m *Machine) strlen(s uint64) (int64, bool) {
	var n int64
	for {
		c, err := m.mem.Load(s+uint64(n), 1)
		if err != nil {
			m.memFault(err)
			return 0, false
		}
		if c == 0 {
			return n, true
		}
		n++
		if n > 1<<20 {
			m.trapf(TrapSegFault, s, ViaNone, "unterminated string")
			return 0, false
		}
	}
}

func (m *Machine) strcmp(a, b uint64, max int64) (int64, bool) {
	var i int64
	for {
		if max >= 0 && i >= max {
			return 0, true
		}
		ca, err := m.mem.Load(a+uint64(i), 1)
		if err != nil {
			m.memFault(err)
			return 0, false
		}
		cb, err := m.mem.Load(b+uint64(i), 1)
		if err != nil {
			m.memFault(err)
			return 0, false
		}
		if ca != cb {
			return int64(ca) - int64(cb), true
		}
		if ca == 0 {
			return 0, true
		}
		i++
	}
}

// appendCStr appends the C string at addr to dst; a fault traps.
func (m *Machine) appendCStr(dst []byte, addr uint64) ([]byte, bool) {
	b, err := m.mem.AppendCString(dst, addr, 1<<20)
	if err != nil {
		m.memFault(err)
		return nil, false
	}
	return b, true
}

// cstr reads the C string at addr through the machine's string buffer.
func (m *Machine) cstr(addr uint64) (string, bool) {
	b, ok := m.appendCStr(m.strBuf[:0], addr)
	if !ok {
		return "", false
	}
	m.strBuf = b
	return string(b), true
}

// format implements the printf family for %d %s %c %x %p %%. The result
// lives in the machine's format buffer and is valid until the next call.
func (m *Machine) format(f *frame, pin *PIns, fmtIdx int) ([]byte, bool) {
	fv, _ := m.evalP(f, &pin.Args[fmtIdx])
	fs, ok := m.appendCStr(m.strBuf[:0], fv)
	if !ok {
		return nil, false
	}
	m.strBuf = fs
	out := m.fmtBuf[:0]
	argi := fmtIdx + 1
	nextArg := func() uint64 {
		if argi < len(pin.Args) {
			v, _ := m.evalP(f, &pin.Args[argi])
			argi++
			return v
		}
		return 0
	}
	for i := 0; i < len(fs); i++ {
		c := fs[i]
		if c != '%' || i+1 >= len(fs) {
			out = append(out, c)
			continue
		}
		i++
		// Skip width/flags (enough for the workloads' formats).
		for i < len(fs) && (fs[i] == '-' || fs[i] == '0' || (fs[i] >= '0' && fs[i] <= '9') || fs[i] == 'l') {
			i++
		}
		if i >= len(fs) {
			break
		}
		switch fs[i] {
		case 'd', 'i':
			out = strconv.AppendInt(out, int64(nextArg()), 10)
		case 'u':
			out = strconv.AppendUint(out, nextArg(), 10)
		case 'x':
			out = strconv.AppendUint(out, nextArg(), 16)
		case 'p':
			out = strconv.AppendUint(append(out, "0x"...), nextArg(), 16)
		case 'c':
			out = append(out, byte(nextArg()))
		case 's':
			if out, ok = m.appendCStr(out, nextArg()); !ok {
				return nil, false
			}
		case '%':
			out = append(out, '%')
		default:
			out = append(out, '%', fs[i])
		}
	}
	m.fmtBuf = out
	return out, true
}

// sscanf supports %d and %s (unbounded %s: another overflow vector).
func (m *Machine) sscanf(f *frame, pin *PIns) (int, bool) {
	sv, _ := m.evalP(f, &pin.Args[0])
	src, ok := m.cstr(sv)
	if !ok {
		return 0, false
	}
	fv, _ := m.evalP(f, &pin.Args[1])
	fs, ok := m.cstr(fv)
	if !ok {
		return 0, false
	}
	argi := 2
	matched := 0
	pos := 0
	skipWS := func() {
		for pos < len(src) && (src[pos] == ' ' || src[pos] == '\t' || src[pos] == '\n') {
			pos++
		}
	}
	for i := 0; i < len(fs)-1; i++ {
		if fs[i] != '%' {
			continue
		}
		if argi >= len(pin.Args) {
			break
		}
		dst, _ := m.evalP(f, &pin.Args[argi])
		argi++
		switch fs[i+1] {
		case 'd':
			skipWS()
			start := pos
			for pos < len(src) && (src[pos] == '-' || (src[pos] >= '0' && src[pos] <= '9')) {
				pos++
			}
			if start == pos {
				return matched, true
			}
			v, _ := strconv.ParseInt(src[start:pos], 10, 64)
			if err := m.mem.Store(dst, 8, uint64(v)); err != nil {
				m.memFault(err)
				return 0, false
			}
			matched++
		case 's':
			skipWS()
			start := pos
			for pos < len(src) && src[pos] != ' ' && src[pos] != '\t' && src[pos] != '\n' {
				pos++
			}
			if start == pos {
				return matched, true
			}
			if err := m.mem.WriteBytes(dst, append([]byte(src[start:pos]), 0)); err != nil {
				m.memFault(err)
				return 0, false
			}
			matched++
		}
	}
	return matched, true
}

func trimNum(s string) string {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	j := i
	if j < len(s) && (s[j] == '-' || s[j] == '+') {
		j++
	}
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	return s[i:j]
}
