// Package backend owns the protection selector and the pluggable
// pointer-integrity enforcement abstraction. A Protection names the one
// defense a compilation gets, as the paper's compiler flags do (-fcpi,
// -fcps, -fstack-protector-safe, §4); core.Config.Protect and
// vm.Config.Protect both hold one. The pointer-integrity protections (cps,
// cpi, pac) also have a Backend, which describes, for the instrumentation
// pass, *what* to protect (its Scope) and *how* each protected operation is
// marked (the ir.Prot flags it emits); the VM's newEnforcer maps the same
// Protection onto its runtime enforcer and the flag bits that activate it.
//
// The classification pipeline in front of the backend is shared: the safe
// stack direct-access skip, the type classifier, the char* string
// heuristic, and the Andersen points-to pruning all run before a backend is
// asked anything. The backend only decides how a surviving sensitive
// operation is rewritten. This is what lets one instrument pass serve the
// safe-region backends (cps/cpi, §3.2–§3.3 of the paper) and the
// authenticate-in-place pac backend (PACTight / "PAC it up" family).
package backend

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Protection selects the compiled-in defense.
type Protection int

// Protection levels. New values are appended so no existing value shifts.
const (
	Vanilla   Protection = iota // nothing (DEP/ASLR/cookies are separate toggles)
	SafeStack                   // safe stack only (-fstack-protector-safe)
	CPS                         // safe stack + code-pointer separation (-fcps)
	CPI                         // safe stack + full code-pointer integrity (-fcpi)
	SoftBound                   // full spatial memory safety baseline (its own pass)
	CFI                         // coarse-grained control-flow integrity baseline
	PAC                         // safe stack + code pointers signed in place with a keyed MAC
)

var protNames = [...]string{"vanilla", "safestack", "cps", "cpi", "softbound", "cfi", "pac"}

// String names the protection level.
func (p Protection) String() string {
	if p < 0 || int(p) >= len(protNames) {
		return fmt.Sprintf("Protection(%d)", int(p))
	}
	return protNames[p]
}

// ParseProtection converts a name to a Protection.
func ParseProtection(s string) (Protection, error) {
	for i, n := range protNames {
		if n == s {
			return Protection(i), nil
		}
	}
	return 0, fmt.Errorf("unknown protection %q (want one of %s)", s, strings.Join(protNames[:], ", "))
}

// Backend returns the pointer-integrity backend that instruments p, or nil
// for the protections with their own passes (vanilla, safestack,
// softbound, cfi).
func (p Protection) Backend() Backend {
	switch p {
	case CPS:
		return codeBackend("cps")
	case CPI:
		return cpiBackend{}
	case PAC:
		return codeBackend("pac")
	}
	return nil
}

// Get returns the backend of the named protection.
func Get(name string) (Backend, bool) {
	p, err := ParseProtection(name)
	if err != nil {
		return nil, false
	}
	bk := p.Backend()
	return bk, bk != nil
}

// Class is the classification of one memory operation that survived the
// shared front-end (type classifier + pruning + heuristics).
type Class int

// Memory-operation classes.
const (
	// ClassFuncPtr is a load/store of a function-pointer-typed value
	// (the code-pointer universe every backend protects).
	ClassFuncPtr Class = iota
	// ClassUniversal is a load/store of a universal pointer (void*, and
	// char* values the string heuristic did not clear).
	ClassUniversal
	// ClassSensitive is a load/store in the transitively sensitive closure
	// (pointers to sensitive types, §3.2.1) — only presented to ScopeFull
	// backends.
	ClassSensitive
	// ClassAnnotated is an access to programmer-annotated sensitive data
	// (§3.2.1 struct annotations) — only presented to ScopeFull backends.
	ClassAnnotated
)

// Scope says which sensitive universe a backend wants instrumented.
type Scope int

// Scopes.
const (
	// ScopeCode protects code pointers and the universal pointers that may
	// carry them (the CPS relaxation, §3.3).
	ScopeCode Scope = iota
	// ScopeFull protects the full transitive sensitive-pointer closure
	// (CPI, §3.2.1), including programmer annotations.
	ScopeFull
)

// Backend describes one enforcement mechanism to the compilation pipeline.
type Backend interface {
	// Name is the protection's name: the p.Protection tag and the table
	// column label ("cps", "cpi", "pac").
	Name() string
	// Scope selects the sensitive universe the instrumentation presents.
	Scope() Scope
	// SafeStack reports whether the backend composes with the safe stack
	// pass (every current backend does: return addresses live on the
	// isolated safe stack, and proven-safe frame accesses are skipped).
	SafeStack() bool
	// MemOp returns the protection flags for one surviving load/store of
	// the given class; regAddr says the address operand is computed (a
	// register), the case where a dereference check is meaningful. Zero
	// means leave the operation plain.
	MemOp(c Class, regAddr bool) ir.Prot
	// SetjmpFlags marks setjmp calls (the implicitly created code pointer
	// in the jmp_buf, §3.2.1).
	SetjmpFlags() ir.Prot
	// SafeIntrFlags marks memcpy/memmove/memset/free calls that may touch
	// protected data and must run as safe variants.
	SafeIntrFlags() ir.Prot
}
