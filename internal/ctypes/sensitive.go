package ctypes

// This file implements the paper's type classifiers.
//
// Fig. 7 (CPI sensitivity criterion):
//
//	sensitive int   ::= false
//	sensitive void  ::= true
//	sensitive f     ::= true
//	sensitive p*    ::= sensitive p
//	sensitive s     ::= OR over fields of s of sensitive a_i
//
// In the full design (§3.2.1), sensitive types are: pointers to functions,
// pointers to sensitive types, pointers to composite types containing
// sensitive members, and universal pointers (void*, char*, opaque pointers).
// The char* string heuristic is a per-value refinement applied by the static
// analysis (internal/analysis), not by the type classifier: the type itself
// stays universal here.

// Sensitive implements Fig. 7 for a *value of* type t: whether a value of
// this type may hold or reach a code pointer and must therefore be protected
// by CPI. For pointer types it asks whether the pointee is sensitive; a
// function type itself is sensitive (so T* with T=func — i.e. a code pointer
// — is sensitive), as is void (so void* is sensitive).
func Sensitive(t *Type) bool {
	return sensitive(t, make(map[*Struct]bool))
}

func sensitive(t *Type, visiting map[*Struct]bool) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KindInt:
		return false
	case KindChar:
		return false // char itself; char* is caught at the pointer level
	case KindVoid:
		return true // void* is universal
	case KindFunc:
		return true // code
	case KindPtr:
		if t.Elem.Kind == KindChar {
			return true // char* is a universal pointer (Fig. 7 via §3.2.1)
		}
		return sensitive(t.Elem, visiting)
	case KindArray:
		return sensitive(t.Elem, visiting)
	case KindStruct:
		if visiting[t.Struct] {
			return false // already being examined along this path
		}
		visiting[t.Struct] = true
		defer delete(visiting, t.Struct)
		for i := range t.Struct.Fields {
			if sensitive(t.Struct.Fields[i].Type, visiting) {
				return true
			}
		}
		return false
	}
	return false
}

// SensitivePtr reports whether a pointer *value* of type t is itself a
// sensitive pointer under CPI, i.e. whether loads/stores of this value must
// go through the safe pointer store. Per §3.2.1 this is: function pointers,
// universal pointers, and pointers to sensitive types (which covers pointers
// to pointers to functions, pointers to structs with code-pointer members,
// etc.).
func SensitivePtr(t *Type) bool {
	if !t.IsPtr() {
		return false
	}
	if t.IsFuncPtr() || t.IsUniversalPtr() {
		return true
	}
	return Sensitive(t.Elem)
}
