package primitive

import (
	"math"

	"repro/internal/nir"
	"repro/internal/vector"
)

// number is the element constraint of the numeric kernels: the four integer
// widths and f64. Each member has its own GC shape, so every instantiation
// compiles to a monomorphic loop.
type number interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~float64
}

// integer is the subset of number the bitwise, shift and modulo operators are
// defined on.
type integer interface {
	~int8 | ~int16 | ~int32 | ~int64
}

// element adds bool to number: the element types equality is defined on.
type element interface {
	number | ~bool
}

// ---------------------------------------------------------------------------
// Element semantics: the single definition of every operator whose meaning is
// not simply Go's operator on the element type. The kernel loops and the
// scalar evaluators below both call these, so the vector and scalar paths
// cannot disagree. Operators that are Go's own (+ - * & | ^, negation, the
// comparisons) are written inline at both places, on the same element type.
//
// These functions must not call other generic functions: inside a generic
// kernel loop every such call reloads a dictionary entry per element. So
// the f64 test is written out as `T(1)/2 != 0`, which folds to a constant
// in each instantiation.

// div is total: integer division by zero yields 0 (MinInt/-1 wraps to
// MinInt, as Go defines); f64 keeps IEEE ±Inf/NaN.
func div[T number](a, b T) T {
	if b == 0 && T(1)/2 == 0 {
		return 0
	}
	return a / b
}

// mod is total: modulo by zero yields 0.
func mod[T integer](a, b T) T {
	if b == 0 {
		return 0
	}
	return a % b
}

// shl and shr mask the shift count to 0..63, so negative and oversized counts
// are defined. A masked count of at least the element width leaves 0, or -1
// when shr shifts a negative value.
func shl[T integer](a, b T) T { return a << (uint64(b) & 63) }
func shr[T integer](a, b T) T { return a >> (uint64(b) & 63) }

// minOf and maxOf return b unless a is strictly smaller (larger). For f64
// this means a NaN in b wins and a NaN in a loses, and ±0 compare equal.
func minOf[T number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

func maxOf[T number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// abs wraps MinInt to itself on the integer kinds; on f64 it clears the sign
// bit (math.Abs), so abs(-0) is +0.
func abs[T number](a T) T {
	if T(1)/2 != 0 {
		return T(math.Abs(float64(a)))
	}
	if a < 0 {
		return -a
	}
	return a
}

// cast is Go's conversion: integers truncate to the target width, f64
// truncates toward zero.
func cast[F, T number](x F) T { return T(x) }

// ---------------------------------------------------------------------------
// Element access shared by the kernels and the scalar evaluators.

// elems returns v's backing slice as []T. v must have T's kind.
func elems[T element](v *vector.Vector) []T {
	switch any((*T)(nil)).(type) {
	case *bool:
		return any(v.Bool()).([]T)
	case *int8:
		return any(v.I8()).([]T)
	case *int16:
		return any(v.I16()).([]T)
	case *int32:
		return any(v.I32()).([]T)
	case *int64:
		return any(v.I64()).([]T)
	default:
		return any(v.F64()).([]T)
	}
}

// scalar reads a Value as T: the B payload for bool, I for the integer
// kinds, F for f64.
func scalar[T element](v vector.Value) T {
	var z T
	switch any(z).(type) {
	case bool:
		return any(v.B).(T)
	case int8:
		return any(int8(v.I)).(T)
	case int16:
		return any(int16(v.I)).(T)
	case int32:
		return any(int32(v.I)).(T)
	case int64:
		return any(v.I).(T)
	default:
		return any(v.F).(T)
	}
}

// value wraps x as a Value of T's kind.
func value[T number](x T) vector.Value {
	switch any(x).(type) {
	case int8:
		return vector.IntValue(vector.I8, int64(x))
	case int16:
		return vector.IntValue(vector.I16, int64(x))
	case int32:
		return vector.IntValue(vector.I32, int64(x))
	case int64:
		return vector.IntValue(vector.I64, int64(x))
	}
	return vector.F64Value(float64(x))
}

// ---------------------------------------------------------------------------
// Scalar evaluators: the interpreter's OpBinS/OpUnS/scalar OpCast. Each
// computes in the element type of the kind, exactly as the kernel for the
// same (kind, op) would on a one-element vector. They report false for a
// (kind, op) pair with no kernel.

// ScalarArith evaluates a op b in kind k.
func ScalarArith(k vector.Kind, op nir.ArithOp, a, b vector.Value) (vector.Value, bool) {
	switch k {
	case vector.Bool:
		switch op {
		case nir.AAnd:
			return vector.BoolValue(a.B && b.B), true
		case nir.AOr:
			return vector.BoolValue(a.B || b.B), true
		case nir.AXor:
			return vector.BoolValue(a.B != b.B), true
		}
	case vector.I8:
		return intArith[int8](op, a, b)
	case vector.I16:
		return intArith[int16](op, a, b)
	case vector.I32:
		return intArith[int32](op, a, b)
	case vector.I64:
		return intArith[int64](op, a, b)
	case vector.F64:
		return numArith[float64](op, a, b)
	}
	return vector.Value{}, false
}

func intArith[T integer](op nir.ArithOp, a, b vector.Value) (vector.Value, bool) {
	x, y := scalar[T](a), scalar[T](b)
	var r T
	switch op {
	case nir.AMod:
		r = mod(x, y)
	case nir.AAnd:
		r = x & y
	case nir.AOr:
		r = x | y
	case nir.AXor:
		r = x ^ y
	case nir.AShl:
		r = shl(x, y)
	case nir.AShr:
		r = shr(x, y)
	default:
		return numArith[T](op, a, b)
	}
	return value(r), true
}

func numArith[T number](op nir.ArithOp, a, b vector.Value) (vector.Value, bool) {
	if r, ok := arith(op, scalar[T](a), scalar[T](b)); ok {
		return value(r), true
	}
	return vector.Value{}, false
}

// arith evaluates the operators defined on every numeric kind.
func arith[T number](op nir.ArithOp, x, y T) (T, bool) {
	switch op {
	case nir.AAdd:
		return x + y, true
	case nir.ASub:
		return x - y, true
	case nir.AMul:
		return x * y, true
	case nir.ADiv:
		return div(x, y), true
	case nir.AMin:
		return minOf(x, y), true
	case nir.AMax:
		return maxOf(x, y), true
	}
	return 0, false
}

// ScalarCmp evaluates a cmp b in kind k. Beyond the kernel matrix it also
// orders strings, and bools as false < true.
func ScalarCmp(k vector.Kind, op nir.CmpOp, a, b vector.Value) (bool, bool) {
	switch k {
	case vector.Bool:
		return compare(op, boolRank(a.B), boolRank(b.B))
	case vector.I8:
		return compare(op, scalar[int8](a), scalar[int8](b))
	case vector.I16:
		return compare(op, scalar[int16](a), scalar[int16](b))
	case vector.I32:
		return compare(op, scalar[int32](a), scalar[int32](b))
	case vector.I64:
		return compare(op, scalar[int64](a), scalar[int64](b))
	case vector.F64:
		return compare(op, scalar[float64](a), scalar[float64](b))
	case vector.Str:
		return compare(op, a.S, b.S)
	}
	return false, false
}

func boolRank(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

func compare[T number | ~string](op nir.CmpOp, a, b T) (bool, bool) {
	switch op {
	case nir.CEq:
		return a == b, true
	case nir.CNe:
		return a != b, true
	case nir.CLt:
		return a < b, true
	case nir.CLe:
		return a <= b, true
	case nir.CGt:
		return a > b, true
	case nir.CGe:
		return a >= b, true
	}
	return false, false
}

// ScalarUnary evaluates op a in kind k.
func ScalarUnary(k vector.Kind, op nir.UnaryOp, a vector.Value) (vector.Value, bool) {
	switch {
	case k == vector.Bool && op == nir.UNot:
		return vector.BoolValue(!a.B), true
	case k == vector.F64 && op == nir.USqrt:
		return vector.F64Value(math.Sqrt(a.F)), true
	}
	switch k {
	case vector.I8:
		return unary[int8](op, a)
	case vector.I16:
		return unary[int16](op, a)
	case vector.I32:
		return unary[int32](op, a)
	case vector.I64:
		return unary[int64](op, a)
	case vector.F64:
		return unary[float64](op, a)
	}
	return vector.Value{}, false
}

func unary[T number](op nir.UnaryOp, a vector.Value) (vector.Value, bool) {
	x := scalar[T](a)
	switch op {
	case nir.UNeg:
		return value(-x), true
	case nir.UAbs:
		return value(abs(x)), true
	}
	return vector.Value{}, false
}

// ScalarCast converts v to kind to. Equal kinds return v unchanged; only the
// numeric kinds convert.
func ScalarCast(v vector.Value, to vector.Kind) (vector.Value, bool) {
	if v.Kind == to {
		return v, true
	}
	switch v.Kind {
	case vector.I8:
		return castTo(scalar[int8](v), to)
	case vector.I16:
		return castTo(scalar[int16](v), to)
	case vector.I32:
		return castTo(scalar[int32](v), to)
	case vector.I64:
		return castTo(scalar[int64](v), to)
	case vector.F64:
		return castTo(scalar[float64](v), to)
	}
	return vector.Value{}, false
}

func castTo[F number](x F, to vector.Kind) (vector.Value, bool) {
	switch to {
	case vector.I8:
		return value(cast[F, int8](x)), true
	case vector.I16:
		return value(cast[F, int16](x)), true
	case vector.I32:
		return value(cast[F, int32](x)), true
	case vector.I64:
		return value(cast[F, int64](x)), true
	case vector.F64:
		return value(cast[F, float64](x)), true
	}
	return vector.Value{}, false
}
