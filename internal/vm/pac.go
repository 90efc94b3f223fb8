package vm

import (
	"repro/internal/ir"
	"repro/internal/sps"
)

// The pac enforcer: MAC-authenticate-in-place pointer integrity (the
// PACTight / "PAC it up" family, modeled on ARMv8.3 pointer
// authentication). Where the safe-region enforcer segregates protected
// pointers into shadow storage, pac keeps them in regular memory but signs
// them: a protected store writes marker bit 63, a keyed MAC over (value,
// storage slot) in bits 47..46+bits, and the 47-bit pointer value below; a
// protected load authenticates the word and recovers code provenance only
// on a MAC match. The metadata footprint is therefore exactly zero — the
// signed word *is* the metadata — and what the backend trades away is
// deterministic detection: an attacker who overwrites a signed slot and
// guesses the MAC field (probability 2^-bits per try, surfaced as
// Result.PacForgeryProb) forges provenance. The slot address in the MAC
// input defeats pointer-copy splicing: a word signed for one slot does not
// authenticate at another.
//
// Detection is at *use*, not at load: a word that fails authentication
// loads as plain data (programs may legitimately memcpy structures
// containing both), but carries invalid metadata, so an indirect call or
// longjmp through it raises TrapPacViolation. Return addresses need no
// signing: the pac backend keeps the safe stack, which the §2 attacker
// cannot address at all.
//
// Temporal behaviour differs from the safe region by design: free() and
// memset invalidate nothing (there is nothing outside the word to drop), a
// stale signed word in recycled memory still authenticates. The overwrite
// that recycles the slot is itself the invalidation.

const (
	pacDefaultBits = 16
	pacMaxBits     = 16
	pacMarkerBit   = uint64(1) << 63
	// pacValMask covers the 47-bit canonical user-space address range the
	// machine's layout uses (see the layout constants in machine.go).
	pacValMask = uint64(1)<<47 - 1
)

type pacEnforcer struct {
	bits uint
	mask uint64 // (1<<bits)-1, the MAC field mask
	key  uint64 // per-machine secret, drawn by seed()

	signs     int64
	auths     int64
	authFails int64
}

// seed draws the MAC key from the machine's layout PRNG. Drawing happens
// after the canary/guard/base draws (see load()), and only on pac
// machines, so other backends' random streams are unaffected.
func (p *pacEnforcer) seed(m *Machine) { p.key = m.nextRand() | 1 }

// mac computes the keyed MAC of a pointer value bound to its storage slot
// (a splitmix64-style finalizer; the model needs key dependence and
// diffusion, not cryptographic strength).
func (p *pacEnforcer) mac(val, slot uint64) uint64 {
	x := (val & pacValMask) ^ (slot * 0x9E3779B97F4A7C15) ^ p.key
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x & p.mask
}

// signWord builds the signed in-memory representation of val at slot.
func (p *pacEnforcer) signWord(val, slot uint64) uint64 {
	return pacMarkerBit | p.mac(val, slot)<<47 | val&pacValMask
}

// authWord strips a signed word back to its value; ok reports whether the
// MAC field matches. Unused high bits between the MAC field and the marker
// are ignored, so exactly 2^bits MAC-field candidates exist per word.
func (p *pacEnforcer) authWord(word, slot uint64) (val uint64, ok bool) {
	val = word & pacValMask
	return val, word>>47&p.mask == p.mac(val, slot)
}

func (p *pacEnforcer) loadProt(m *Machine, f *frame, addr uint64, dst int32, universal bool) bool {
	v, err := m.mem.Load(addr, 8)
	if err != nil {
		m.memFault(err)
		return false
	}
	m.cycles += m.cfg.Cost.Load + m.cfg.Cost.PacAuth
	p.auths++
	if v&pacMarkerBit != 0 {
		if val, ok := p.authWord(v, addr); ok {
			f.regs[dst] = val
			f.meta[dst] = Meta{Kind: sps.KindCode, Lower: val, Upper: val}
			return true
		}
		p.authFails++
	}
	// Unsigned (or unauthentic) word: loads as plain data with invalid
	// metadata. Detection happens at use — a control transfer through it
	// raises TrapPacViolation (execICall / longjmpResume).
	f.regs[dst] = v
	f.meta[dst] = invalidMeta
	return true
}

func (p *pacEnforcer) storeProt(m *Machine, addr, val uint64, valMeta Meta, _ ir.Prot) uint64 {
	if valMeta.Kind == sps.KindCode {
		m.cycles += m.cfg.Cost.PacSign
		p.signs++
		return p.signWord(val, addr)
	}
	// A value without code provenance stores raw; overwriting a signed
	// slot with it is the invalidation (an unsigned word never
	// authenticates).
	return val
}

func (p *pacEnforcer) setjmpSave(m *Machine, buf, siteAddr uint64) {
	// setjmp already wrote the raw jmp_buf words (and paid their Store
	// cost); re-store word 0 as the signed resume address.
	m.cycles += m.cfg.Cost.PacSign
	p.signs++
	if err := m.mem.Store(buf, 8, p.signWord(siteAddr, buf)); err != nil {
		m.memFault(err)
	}
}

func (p *pacEnforcer) longjmpResume(m *Machine, buf uint64) (uint64, bool) {
	v, err := m.mem.Load(buf, 8)
	if err != nil {
		m.memFault(err)
		return 0, false
	}
	m.cycles += m.cfg.Cost.Load + m.cfg.Cost.PacAuth
	p.auths++
	if v&pacMarkerBit != 0 {
		if val, ok := p.authWord(v, buf); ok {
			return val, true
		}
	}
	p.authFails++
	m.trapf(TrapPacViolation, buf, ViaLongjmp,
		"longjmp buffer fails pointer authentication")
	return 0, false
}

func (p *pacEnforcer) initEntry(m *Machine, addr uint64, e sps.Entry) {
	// The loader signs global code-pointer initializers in place (it is
	// trusted, §2); data-pointer initializers stay raw — pac carries no
	// bounds, so there is nothing to record for them.
	if e.Kind == sps.KindCode {
		_ = m.mem.ForceStore(addr, 8, p.signWord(e.Value, addr))
	}
}

func (p *pacEnforcer) copyRange(m *Machine, dst, src uint64, words int) {
	// The byte copy has already run, so a copied signed word carries a MAC
	// bound to its *source* slot and would not authenticate at the
	// destination. Walk the destination range and re-bind every word that
	// authenticates against its source address (authenticate-then-re-sign,
	// as a PAC-aware memcpy must). Only destination words are read and
	// rewritten and only source *addresses* enter the MAC, so overlapping
	// copies stay snapshot-equivalent.
	m.cycles += int64(words) * m.cfg.Cost.SafeIntrWord
	for i := 0; i < words; i++ {
		d, s := dst+uint64(i)*8, src+uint64(i)*8
		w, err := m.mem.Load(d, 8)
		if err != nil || w&pacMarkerBit == 0 {
			continue
		}
		m.cycles += m.cfg.Cost.PacAuth
		p.auths++
		val, ok := p.authWord(w, s)
		if !ok {
			p.authFails++
			continue // an unauthentic word copies verbatim (and stays dead)
		}
		m.cycles += m.cfg.Cost.PacSign
		p.signs++
		if err := m.mem.Store(d, 8, p.signWord(val, d)); err != nil {
			m.memFault(err)
			return
		}
	}
}

// clearRange and dropRange are no-ops: memset already wrote unsigned bytes
// (which never authenticate) and free() has no shadow state to drop — the
// documented temporal trade-off of in-place authentication.
func (p *pacEnforcer) clearRange(*Machine, uint64, int) {}
func (p *pacEnforcer) dropRange(*Machine, uint64, int)  {}

// sampleMem is a no-op: the MAC lives inside the pointer word, so the
// backend's metadata footprint is identically zero.
func (p *pacEnforcer) sampleMem(*MemStats) {}

func (p *pacEnforcer) finishStats(r *Result) {
	r.PacSigns, r.PacAuths, r.PacAuthFails = p.signs, p.auths, p.authFails
	r.PacForgeryProb = 1 / float64(uint64(1)<<p.bits)
}

func (p *pacEnforcer) reset() {
	p.signs, p.auths, p.authFails = 0, 0, 0
	p.key = 0 // redrawn by the load() that follows
}
