package primitive

import (
	"math"

	"repro/internal/nir"
	"repro/internal/vector"
)

// The kernel loops: one generic function per (operator, operand shape),
// instantiated once per element kind and registered by init below. Each
// loop calls the operator's single definition from ops.go, or writes Go's
// operator inline; see the note there.
//
// The operator is fixed per function on purpose. On 1,024-element chunks
// on a 2-CPU x86-64 host, dispatching it per element (a switch inside the
// loop) cost 3-4x and passing it as a func(T, T) T cost 2.8x, so there is no
// shared "apply op" loop. The loops without a selection reslice their
// operands to the window first, which lets the compiler drop the
// per-element bounds checks; that halved the time of a 1,024-element f64
// multiply on the same host.

func init() {
	registerInteger[int8](vector.I8)
	registerInteger[int16](vector.I16)
	registerInteger[int32](vector.I32)
	registerInteger[int64](vector.I64)
	registerNumber[float64](vector.F64)
	mapUn[unKey{vector.F64, nir.USqrt}] = sqrtMap

	registerCasts[int8](vector.I8)
	registerCasts[int16](vector.I16)
	registerCasts[int32](vector.I32)
	registerCasts[int64](vector.I64)
	registerCasts[float64](vector.F64)

	// Bool: the logical operators, equality, not, and logical folds. Xor on
	// bools is inequality.
	registerBin(vector.Bool, nir.AAnd, andVV, andVS, andSV)
	registerBin(vector.Bool, nir.AOr, orVV, orVS, orSV)
	registerBin(vector.Bool, nir.AXor, neVV[bool], neVS[bool], neSV[bool])
	registerCmp(vector.Bool, nir.CEq, eqVV[bool], eqVS[bool], eqSV[bool], nil)
	registerCmp(vector.Bool, nir.CNe, neVV[bool], neVS[bool], neSV[bool], nil)
	mapUn[unKey{vector.Bool, nir.UNot}] = notMap
	foldKernels[binKey{vector.Bool, nir.AAnd}] = foldAndBool
	foldKernels[binKey{vector.Bool, nir.AOr}] = foldOrBool
	foldKernels[binKey{vector.Bool, nir.AXor}] = foldXorBool
}

// registerNumber registers the kernels defined on every numeric kind.
func registerNumber[T number](k vector.Kind) {
	registerBin(k, nir.AAdd, addVV[T], addVS[T], addSV[T])
	registerBin(k, nir.ASub, subVV[T], subVS[T], subSV[T])
	registerBin(k, nir.AMul, mulVV[T], mulVS[T], mulSV[T])
	registerBin(k, nir.ADiv, divVV[T], divVS[T], divSV[T])
	registerBin(k, nir.AMin, minVV[T], minVS[T], minSV[T])
	registerBin(k, nir.AMax, maxVV[T], maxVS[T], maxSV[T])

	registerCmp(k, nir.CEq, eqVV[T], eqVS[T], eqSV[T], selEq[T])
	registerCmp(k, nir.CNe, neVV[T], neVS[T], neSV[T], selNe[T])
	registerCmp(k, nir.CLt, ltVV[T], ltVS[T], ltSV[T], selLt[T])
	registerCmp(k, nir.CLe, leVV[T], leVS[T], leSV[T], selLe[T])
	registerCmp(k, nir.CGt, gtVV[T], gtVS[T], gtSV[T], selGt[T])
	registerCmp(k, nir.CGe, geVV[T], geVS[T], geSV[T], selGe[T])

	mapUn[unKey{k, nir.UNeg}] = negMap[T]
	mapUn[unKey{k, nir.UAbs}] = absMap[T]

	foldKernels[binKey{k, nir.AAdd}] = foldAdd[T]
	foldKernels[binKey{k, nir.AMul}] = foldMul[T]
	foldKernels[binKey{k, nir.AMin}] = foldMin[T]
	foldKernels[binKey{k, nir.AMax}] = foldMax[T]
}

// registerInteger adds the integer-only operators to registerNumber's set.
func registerInteger[T integer](k vector.Kind) {
	registerNumber[T](k)
	registerBin(k, nir.AMod, modVV[T], modVS[T], modSV[T])
	registerBin(k, nir.AAnd, bitAndVV[T], bitAndVS[T], bitAndSV[T])
	registerBin(k, nir.AOr, bitOrVV[T], bitOrVS[T], bitOrSV[T])
	registerBin(k, nir.AXor, bitXorVV[T], bitXorVS[T], bitXorSV[T])
	registerBin(k, nir.AShl, shlVV[T], shlVS[T], shlSV[T])
	registerBin(k, nir.AShr, shrVV[T], shrVS[T], shrSV[T])

	foldKernels[binKey{k, nir.AAnd}] = foldBitAnd[T]
	foldKernels[binKey{k, nir.AOr}] = foldBitOr[T]
	foldKernels[binKey{k, nir.AXor}] = foldBitXor[T]
}

// registerCasts registers the conversions from F to every other numeric kind.
func registerCasts[F number](from vector.Kind) {
	for to, f := range map[vector.Kind]CastFunc{
		vector.I8:  castMap[F, int8],
		vector.I16: castMap[F, int16],
		vector.I32: castMap[F, int32],
		vector.I64: castMap[F, int64],
		vector.F64: castMap[F, float64],
	} {
		if to != from {
			castKernels[castKey{from, to}] = f
		}
	}
}

func registerBin(k vector.Kind, op nir.ArithOp, vv BinVVFunc, vs BinVSFunc, sv BinSVFunc) {
	key := binKey{k, op}
	mapBinVV[key], mapBinVS[key], mapBinSV[key] = vv, vs, sv
}

// registerCmp registers the comparison maps and, when sc is non-nil, the
// selection kernel.
func registerCmp(k vector.Kind, op nir.CmpOp, vv BinVVFunc, vs BinVSFunc, sv BinSVFunc, sc SelCmpIntoFunc) {
	key := cmpKey{k, op}
	mapCmpVV[key], mapCmpVS[key], mapCmpSV[key] = vv, vs, sv
	if sc != nil {
		selCmpInto[key] = sc
	}
}

// ---------------------------------------------------------------------------
// Arithmetic maps: dst[i] = a[i] op b[i] (VV), a[i] op s (VS), s op b[i] (SV).

func addVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] + db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] + db[i]
	}
}

func addVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] + s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] + s
	}
}

func addSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s + db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s + db[i]
	}
}

func subVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] - db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] - db[i]
	}
}

func subVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] - s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] - s
	}
}

func subSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s - db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s - db[i]
	}
}

func mulVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] * db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] * db[i]
	}
}

func mulVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] * s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] * s
	}
}

func mulSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s * db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s * db[i]
	}
}

func divVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = div(da[i], db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = div(da[i], db[i])
	}
}

func divVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = div(da[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = div(da[i], s)
	}
}

func divSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = div(s, db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = div(s, db[i])
	}
}

func minVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = minOf(da[i], db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = minOf(da[i], db[i])
	}
}

func minVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = minOf(da[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = minOf(da[i], s)
	}
}

func minSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = minOf(s, db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = minOf(s, db[i])
	}
}

func maxVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = maxOf(da[i], db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = maxOf(da[i], db[i])
	}
}

func maxVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = maxOf(da[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = maxOf(da[i], s)
	}
}

func maxSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = maxOf(s, db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = maxOf(s, db[i])
	}
}

func modVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = mod(da[i], db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = mod(da[i], db[i])
	}
}

func modVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = mod(da[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = mod(da[i], s)
	}
}

func modSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = mod(s, db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = mod(s, db[i])
	}
}

func bitAndVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] & db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] & db[i]
	}
}

func bitAndVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] & s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] & s
	}
}

func bitAndSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s & db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s & db[i]
	}
}

func bitOrVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] | db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] | db[i]
	}
}

func bitOrVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] | s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] | s
	}
}

func bitOrSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s | db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s | db[i]
	}
}

func bitXorVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] ^ db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] ^ db[i]
	}
}

func bitXorVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] ^ s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] ^ s
	}
}

func bitXorSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s ^ db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s ^ db[i]
	}
}

func shlVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = shl(da[i], db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = shl(da[i], db[i])
	}
}

func shlVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = shl(da[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = shl(da[i], s)
	}
}

func shlSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = shl(s, db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = shl(s, db[i])
	}
}

func shrVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := elems[T](dst), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = shr(da[i], db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = shr(da[i], db[i])
	}
}

func shrVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := elems[T](dst), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = shr(da[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = shr(da[i], s)
	}
}

func shrSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := elems[T](dst), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = shr(s, db[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = shr(s, db[i])
	}
}

// Bool logical maps.

func andVV(dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), a.Bool(), b.Bool()
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] && db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] && db[i]
	}
}

func andVS(dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), a.Bool(), b.B
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] && s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] && s
	}
}

func andSV(dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), a.B, b.Bool()
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s && db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s && db[i]
	}
}

func orVV(dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), a.Bool(), b.Bool()
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] || db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] || db[i]
	}
}

func orVS(dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), a.Bool(), b.B
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] || s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] || s
	}
}

func orSV(dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), a.B, b.Bool()
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s || db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s || db[i]
	}
}

// ---------------------------------------------------------------------------
// Comparison maps: dst[i] (bool) = a[i] cmp b[i], a[i] cmp s, s cmp b[i].
// Equality is also defined on bools.

func eqVV[T element](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] == db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] == db[i]
	}
}

func eqVS[T element](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] == s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] == s
	}
}

func eqSV[T element](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s == db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s == db[i]
	}
}

func neVV[T element](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] != db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] != db[i]
	}
}

func neVS[T element](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] != s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] != s
	}
}

func neSV[T element](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s != db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s != db[i]
	}
}

func ltVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] < db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] < db[i]
	}
}

func ltVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] < s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] < s
	}
}

func ltSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s < db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s < db[i]
	}
}

func leVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] <= db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] <= db[i]
	}
}

func leVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] <= s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] <= s
	}
}

func leSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s <= db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s <= db[i]
	}
}

func gtVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] > db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] > db[i]
	}
}

func gtVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] > s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] > s
	}
}

func gtSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s > db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s > db[i]
	}
}

func geVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da, db := dst.Bool(), elems[T](a), elems[T](b)
	if sel == nil {
		dd, da, db = dd[lo:hi], da[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = da[i] >= db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] >= db[i]
	}
}

func geVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	dd, da, s := dst.Bool(), elems[T](a), scalar[T](b)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = da[i] >= s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = da[i] >= s
	}
}

func geSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, s, db := dst.Bool(), scalar[T](a), elems[T](b)
	if sel == nil {
		dd, db = dd[lo:hi], db[lo:hi]
		for i := range dd {
			dd[i] = s >= db[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = s >= db[i]
	}
}

// ---------------------------------------------------------------------------
// Selections: the sub-selection of the window where a[i] cmp s, written into
// dst. Entry k is written after entry k of the window is read, so dst may
// alias sel.

// selBuf returns dst resized to n entries, reallocating only when it is too
// small. The result is never nil: a nil selection would mean every row.
func selBuf(dst vector.Sel, n int) vector.Sel {
	if dst == nil || cap(dst) < n {
		return make(vector.Sel, n)
	}
	return dst[:n]
}

func selEq[T number](dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	da, s, out, k := elems[T](a), scalar[T](b), selBuf(dst, hi-lo), 0
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			if da[i] == s {
				out[k] = int32(lo + i)
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel[lo:hi] {
		if da[i] == s {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

func selNe[T number](dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	da, s, out, k := elems[T](a), scalar[T](b), selBuf(dst, hi-lo), 0
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			if da[i] != s {
				out[k] = int32(lo + i)
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel[lo:hi] {
		if da[i] != s {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

func selLt[T number](dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	da, s, out, k := elems[T](a), scalar[T](b), selBuf(dst, hi-lo), 0
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			if da[i] < s {
				out[k] = int32(lo + i)
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel[lo:hi] {
		if da[i] < s {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

func selLe[T number](dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	da, s, out, k := elems[T](a), scalar[T](b), selBuf(dst, hi-lo), 0
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			if da[i] <= s {
				out[k] = int32(lo + i)
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel[lo:hi] {
		if da[i] <= s {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

func selGt[T number](dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	da, s, out, k := elems[T](a), scalar[T](b), selBuf(dst, hi-lo), 0
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			if da[i] > s {
				out[k] = int32(lo + i)
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel[lo:hi] {
		if da[i] > s {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

func selGe[T number](dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	da, s, out, k := elems[T](a), scalar[T](b), selBuf(dst, hi-lo), 0
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			if da[i] >= s {
				out[k] = int32(lo + i)
				k++
			}
		}
		return out[:k]
	}
	for _, i := range sel[lo:hi] {
		if da[i] >= s {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

// ---------------------------------------------------------------------------
// Unary maps and casts: dst[i] = op a[i].

func negMap[T number](dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da := elems[T](dst), elems[T](a)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = -da[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = -da[i]
	}
}

func absMap[T number](dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da := elems[T](dst), elems[T](a)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = abs(da[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = abs(da[i])
	}
}

func sqrtMap(dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da := dst.F64(), a.F64()
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = math.Sqrt(da[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = math.Sqrt(da[i])
	}
}

func notMap(dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da := dst.Bool(), a.Bool()
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = !da[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = !da[i]
	}
}

func castMap[F, T number](dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	dd, da := elems[T](dst), elems[F](a)
	if sel == nil {
		dd, da = dd[lo:hi], da[lo:hi]
		for i := range dd {
			dd[i] = cast[F, T](da[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		dd[i] = cast[F, T](da[i])
	}
}

// ---------------------------------------------------------------------------
// Folds: acc = acc op a[i] over the window, starting from init.

func foldAdd[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc += da[i]
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc += da[i]
	}
	return value(acc)
}

func foldMul[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc *= da[i]
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc *= da[i]
	}
	return value(acc)
}

func foldMin[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc = minOf(acc, da[i])
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc = minOf(acc, da[i])
	}
	return value(acc)
}

func foldMax[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc = maxOf(acc, da[i])
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc = maxOf(acc, da[i])
	}
	return value(acc)
}

func foldBitAnd[T integer](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc &= da[i]
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc &= da[i]
	}
	return value(acc)
}

func foldBitOr[T integer](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc |= da[i]
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc |= da[i]
	}
	return value(acc)
}

func foldBitXor[T integer](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := elems[T](a), scalar[T](init)
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc ^= da[i]
		}
		return value(acc)
	}
	for _, i := range sel[lo:hi] {
		acc ^= da[i]
	}
	return value(acc)
}

func foldAndBool(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := a.Bool(), init.B
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc = acc && da[i]
		}
		return vector.BoolValue(acc)
	}
	for _, i := range sel[lo:hi] {
		acc = acc && da[i]
	}
	return vector.BoolValue(acc)
}

func foldOrBool(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := a.Bool(), init.B
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc = acc || da[i]
		}
		return vector.BoolValue(acc)
	}
	for _, i := range sel[lo:hi] {
		acc = acc || da[i]
	}
	return vector.BoolValue(acc)
}

func foldXorBool(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	da, acc := a.Bool(), init.B
	if sel == nil {
		da = da[lo:hi]
		for i := range da {
			acc = acc != da[i]
		}
		return vector.BoolValue(acc)
	}
	for _, i := range sel[lo:hi] {
		acc = acc != da[i]
	}
	return vector.BoolValue(acc)
}
