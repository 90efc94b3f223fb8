// Package backend defines the pluggable pointer-integrity enforcement
// abstraction. A Backend describes, for the instrumentation pass, *what* to
// protect (its Scope) and *how* each protected operation is marked (the
// ir.Prot flags it emits); the VM side runs the enforcer of the same name
// (vm.Config.Backend, selected in vm's newEnforcer together with the flag
// bits that activate it).
//
// The classification pipeline in front of the backend is shared: the safe
// stack direct-access skip, the type classifier, the char* string
// heuristic, and the Andersen points-to pruning all run before a backend is
// asked anything. The backend only decides how a surviving sensitive
// operation is rewritten. This is what lets one instrument pass serve the
// safe-region backends (cps/cpi, §3.2–§3.3 of the paper) and the
// authenticate-in-place pac backend (PACTight / "PAC it up" family) — and
// what the planned code-pointer-table backend will plug into.
package backend

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

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
	// Name is the registry key, the p.Protection tag, and the table column
	// label ("cps", "cpi", "pac", ...).
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

var (
	registry = map[string]Backend{}
	order    []string
)

// Register adds a backend to the registry. Registering a duplicate name
// panics: names are table columns and config keys, so a collision is a
// programming error.
func Register(b Backend) {
	name := b.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	registry[name] = b
	order = append(order, name)
}

// Get returns the named backend.
func Get(name string) (Backend, bool) {
	b, ok := registry[name]
	return b, ok
}

// Names returns the registered backend names in registration order
// (cps, cpi, pac) — the column order of the cross-backend tables.
func Names() []string {
	return append([]string(nil), order...)
}

// Sorted returns the registered names sorted lexicographically, for error
// messages.
func Sorted() []string {
	s := Names()
	sort.Strings(s)
	return s
}
