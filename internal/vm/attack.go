package vm

import "repro/internal/mem"

// Attacker is the §2 threat-model interface: full control over regular
// process memory (arbitrary reads and writes through assumed memory bugs),
// no ability to modify the code segment, no control over program loading.
// The RIPE driver uses it to model "indirect" techniques and info leaks;
// the "direct" techniques corrupt memory purely through in-program bugs
// (strcpy/memcpy/sprintf overflows on attacker input).
type Attacker struct {
	m *Machine
	// Leak models an information-leak primitive: with it, AddrOf* return
	// true addresses even under ASLR; without it the attacker guesses.
	Leak bool
}

// Attacker returns the attacker interface for this machine.
func (m *Machine) Attacker(leak bool) *Attacker {
	return &Attacker{m: m, Leak: leak}
}

// Write performs an arbitrary write to regular memory. Writes to
// non-writable pages (code, rodata) fail, per the threat model.
func (a *Attacker) Write(addr uint64, data []byte) bool {
	return a.m.mem.WriteBytes(addr, data) == nil
}

// WriteWord writes one 8-byte word.
func (a *Attacker) WriteWord(addr, v uint64) bool {
	return a.m.mem.Store(addr, 8, v) == nil
}

// Read performs an arbitrary read of regular memory.
func (a *Attacker) Read(addr uint64, n int) ([]byte, bool) {
	b, err := a.m.mem.ReadBytes(addr, n)
	return b, err == nil
}

// ReadWord reads one word.
func (a *Attacker) ReadWord(addr uint64) (uint64, bool) {
	v, err := a.m.mem.Load(addr, 8)
	return v, err == nil
}

// guess returns addr when the attacker can know it — a leak, no ASLR, or a
// fixed (non-randomized) segment — and otherwise a wrong address
// (deterministically derived), modelling an ASLR guess that misses. In a
// non-PIE address space only the stack and heap are randomized: code,
// rodata and globals sit at their linked addresses, which is why RIPE
// attacks on .bss/.data targets survive ASLR on such systems.
func (a *Attacker) guess(addr uint64) uint64 {
	if a.Leak || !a.m.cfg.ASLR {
		return addr
	}
	if !a.m.cfg.PIE && addr < heapBase {
		return addr // fixed executable segment (code/rodata/globals)
	}
	// A miss by some page multiple: in a 16 MiB slide space a single guess
	// is wrong with overwhelming probability. A seeded 1-in-4096 chance of
	// a lucky hit reproduces RIPE's "some attacks succeed
	// probabilistically" behaviour on randomized systems.
	if a.m.nextRand()%4096 == 0 {
		return addr
	}
	return addr ^ (((a.m.nextRand() % 4095) + 1) * mem.PageSize)
}

// GuessOf returns the attacker's view of an arbitrary known-layout address:
// exact with a leak or without ASLR, a (seeded) near-miss otherwise.
func (a *Attacker) GuessOf(addr uint64) uint64 { return a.guess(addr) }

// FuncAddr returns the attacker's view of a function's address.
func (a *Attacker) FuncAddr(name string) (uint64, bool) {
	v, ok := a.m.FuncAddr(name)
	if !ok {
		return 0, false
	}
	return a.guess(v), true
}

// GlobalAddr returns the attacker's view of a global's address.
func (a *Attacker) GlobalAddr(name string) (uint64, bool) {
	v, ok := a.m.GlobalAddr(name)
	if !ok {
		return 0, false
	}
	return a.guess(v), true
}

// GadgetAddr returns an address inside the code segment that is neither a
// function entry nor a return site: the start of a ROP/JOP gadget chain.
func (a *Attacker) GadgetAddr() uint64 {
	return a.guess(codeBase + a.m.slideCode + 0x40 + 8)
}

// HeapAddr returns the attacker's view of the heap base.
func (a *Attacker) HeapAddr() uint64 {
	return a.guess(heapBase + a.m.slideHeap)
}

// GuessSafeRegion attempts to access the safe region under info-hiding
// isolation (§3.2.3). The attacker must name the exact randomized base of a
// 46-bit space; a wrong guess is a crash (detectable), a right guess would
// break CPI. Under segment isolation the safe region is not addressable at
// all and the attempt always fails.
func (a *Attacker) GuessSafeRegion(guess uint64) (success, crashed bool) {
	if a.m.cfg.Isolation != IsoInfoHide {
		return false, true // segment/SFI: no addressable path at all
	}
	if guess == a.m.safeBaseSec {
		return true, false
	}
	return false, true // wrong guess: unmapped access, process crashes
}

// RetSlot returns the in-memory location of the return address of the
// innermost live activation of the named function, and whether it lies in
// the safe address space (unreachable by the attacker). This models an
// attacker who has reverse-engineered the stack layout.
func (m *Machine) RetSlot(fn string) (addr uint64, safe, ok bool) {
	for i := len(m.frames) - 1; i >= 0; i-- {
		f := m.frames[i]
		if f.fn.Name == fn {
			return f.retSlot, f.retOnSafe, true
		}
	}
	return 0, false, false
}

// FrameObjAddr returns the address of a named frame object in the innermost
// live activation of fn, and whether it lives in the safe address space.
func (m *Machine) FrameObjAddr(fn, obj string) (addr uint64, safe, ok bool) {
	for i := len(m.frames) - 1; i >= 0; i-- {
		f := m.frames[i]
		if f.fn.Name != fn {
			continue
		}
		for idx, o := range f.fn.Frame {
			if o.Name == obj {
				a, onSafe := m.objAddr(f, idx)
				return a, onSafe, true
			}
		}
	}
	return 0, false, false
}

// SafeRegionLeakable asserts the leak-proofness invariant of §3.2.3: no
// pointer into the safe region is ever stored in regular memory. It scans
// all mapped regular pages for words that would fall inside the safe stack
// range and returns true if any are found (tests assert false).
func (m *Machine) SafeRegionLeakable() bool {
	lo := uint64(safeStackTop) - stackMax
	hi := uint64(safeStackTop)
	found := false
	m.scanRegular(func(addr, word uint64) {
		if word >= lo && word < hi {
			found = true
		}
	})
	return found
}

// HeapGlobalsHash returns an FNV-1a hash over every mapped aligned word of
// the globals segment and the heap (address offsets and contents). It is
// the "heap-visible state" fingerprint of a finished run: two executions of
// the same program that agree on it wrote the same values to the same
// data-segment and heap locations. The stacks are deliberately excluded —
// frame layouts are compiler artifacts (the promotion-equivalence suite
// compares runs whose frames legitimately differ).
func (m *Machine) HeapGlobalsHash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(w uint64) {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (w >> i & 0xff)) * prime
		}
	}
	scan := func(base, lo, hi uint64) {
		for a := lo; a+8 <= hi; a += 8 {
			if !m.mem.Mapped(a) {
				a += mem.PageSize - 8
				continue
			}
			if v, err := m.mem.Load(a, 8); err == nil && v != 0 {
				mix(a - base) // position, slide-independent
				mix(v)
			}
		}
	}
	gbase := globalBase + m.slideData
	scan(gbase, gbase, gbase+uint64(m.memStats.Globals))
	hbase := heapBase + m.slideHeap
	scan(hbase, hbase, m.heapBrk)
	return h
}

// scanRegular visits every aligned word of the regular stack, globals and
// heap.
func (m *Machine) scanRegular(visit func(addr, word uint64)) {
	scan := func(lo, hi uint64) {
		for a := lo; a+8 <= hi; a += 8 {
			if !m.mem.Mapped(a) {
				a += mem.PageSize - 8
				continue
			}
			if v, err := m.mem.Load(a, 8); err == nil {
				visit(a, v)
			}
		}
	}
	scan(globalBase+m.slideData, globalBase+m.slideData+uint64(m.memStats.Globals))
	scan(heapBase+m.slideHeap, m.heapBrk)
	scan(m.sp, stackTop-m.slideStack)
}
