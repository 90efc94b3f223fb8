package backend

import "repro/internal/ir"

// The compile-side backends. cps and cpi are the paper's own enforcement
// mechanism (§3.2–§3.3): protected pointers live in the isolated safe
// pointer store, keyed by their regular-region address, behind the VM's
// safe-region enforcer. pac (the PACTight / "PAC it up" family) instead
// signs code pointers in place with a keyed MAC bound to the pointer value
// and its storage slot, and authenticates them on load: no shadow memory,
// but a forgery that guesses the MAC (probability 2^-PacBits)
// authenticates, which the VM surfaces as Result.PacForgeryProb.

// codeBackend is the §3.3 relaxation's instrumented set: code and
// universal pointers only. cps and pac share it, flags included, so
// predecode-time handler selection and block compilation behave
// identically under both; only the runtime enforcer the VM picks for the
// protection differs. The value is the backend's name.
type codeBackend string

func (b codeBackend) Name() string  { return string(b) }
func (codeBackend) Scope() Scope    { return ScopeCode }
func (codeBackend) SafeStack() bool { return true }
func (codeBackend) MemOp(c Class, regAddr bool) ir.Prot {
	switch c {
	case ClassFuncPtr:
		return ir.ProtCPS
	case ClassUniversal:
		return ir.ProtCPS | ir.ProtUniversal
	}
	return 0
}
func (codeBackend) SetjmpFlags() ir.Prot   { return ir.ProtCPS }
func (codeBackend) SafeIntrFlags() ir.Prot { return ir.ProtSafeIntr }

// cpiBackend is full code-pointer integrity (§3.2): the sensitive closure,
// bounds metadata, and dereference checks on computed addresses.
type cpiBackend struct{}

func (cpiBackend) Name() string    { return "cpi" }
func (cpiBackend) Scope() Scope    { return ScopeFull }
func (cpiBackend) SafeStack() bool { return true }
func (cpiBackend) MemOp(c Class, regAddr bool) ir.Prot {
	var fl ir.Prot
	switch c {
	case ClassSensitive:
		fl = ir.ProtCPIStore | ir.ProtCPILoad
	case ClassUniversal:
		fl = ir.ProtCPIStore | ir.ProtCPILoad | ir.ProtUniversal
	case ClassAnnotated:
		fl = ir.ProtCPIStore | ir.ProtCPILoad | ir.ProtAnnotated
	default:
		return 0
	}
	if regAddr {
		fl |= ir.ProtCPICheck
	}
	return fl
}
func (cpiBackend) SetjmpFlags() ir.Prot   { return ir.ProtCPIStore }
func (cpiBackend) SafeIntrFlags() ir.Prot { return ir.ProtSafeIntr }
