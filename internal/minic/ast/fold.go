package ast

import "repro/internal/ctypes"

// IntConst folds an integer constant expression: literals, sizeof(T), the
// unary and binary integer operators, and casts to an integer type. A cast
// to char truncates to 8 bits, as the VM's char cast does. Division or
// remainder by zero does not fold. The parser folds array sizes and case
// labels with it, irgen global scalar initializers.
func IntConst(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, true
	case *Unary:
		v, ok := IntConst(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case UNeg:
			return -v, true
		case UBitNot:
			return ^v, true
		case UNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *Binary:
		a, ok1 := IntConst(x.X)
		b, ok2 := IntConst(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case Add:
			return a + b, true
		case Sub:
			return a - b, true
		case Mul:
			return a * b, true
		case Div:
			if b != 0 {
				return a / b, true
			}
		case Rem:
			if b != 0 {
				return a % b, true
			}
		case Shl:
			return a << uint(b&63), true
		case Shr:
			return a >> uint(b&63), true
		case And:
			return a & b, true
		case Or:
			return a | b, true
		case Xor:
			return a ^ b, true
		}
	case *SizeofType:
		if x.T != nil {
			return x.T.Size(), true
		}
	case *Cast:
		if v, ok := IntConst(x.X); ok && x.To.IsInteger() {
			if x.To.Kind == ctypes.KindChar {
				v &= 0xff
			}
			return v, true
		}
	}
	return 0, false
}
