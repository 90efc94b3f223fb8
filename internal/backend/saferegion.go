package backend

import "repro/internal/ir"

// The safe-region backends: the paper's own enforcement mechanism
// (§3.2–§3.3). Protected pointers live in the isolated safe pointer store,
// keyed by their regular-region address; the runtime half is the sps
// package behind the VM's safe-region enforcer. Two registry entries share
// it: cps (code pointers only, no bounds) and cpi (the full sensitive
// closure with bounds metadata and dereference checks).

// cpsBackend is the §3.3 relaxation: code and universal pointers only.
type cpsBackend struct{}

func (cpsBackend) Name() string    { return "cps" }
func (cpsBackend) Scope() Scope    { return ScopeCode }
func (cpsBackend) SafeStack() bool { return true }
func (cpsBackend) MemOp(c Class, regAddr bool) ir.Prot {
	switch c {
	case ClassFuncPtr:
		return ir.ProtCPS
	case ClassUniversal:
		return ir.ProtCPS | ir.ProtUniversal
	}
	return 0
}
func (cpsBackend) SetjmpFlags() ir.Prot   { return ir.ProtCPS }
func (cpsBackend) SafeIntrFlags() ir.Prot { return ir.ProtSafeIntr }

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

// All built-in backends register here, in one place, so the registration
// order — which is the cross-backend table column order — is explicit
// rather than an accident of per-file init ordering.
func init() {
	Register(cpsBackend{})
	Register(cpiBackend{})
	Register(pacBackend{})
}
