package primitive

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/nir"
	"repro/internal/vector"
)

// This file checks every registered kernel against a plain reference written
// here, independently of the kernels: integer kinds compute in int64 and
// truncate to the kind's width, f64 computes in float64.

var (
	numKinds  = []vector.Kind{vector.I8, vector.I16, vector.I32, vector.I64, vector.F64}
	floatOps  = []nir.ArithOp{nir.AAdd, nir.ASub, nir.AMul, nir.ADiv, nir.AMin, nir.AMax}
	intOnlyOp = []nir.ArithOp{nir.AMod, nir.AAnd, nir.AOr, nir.AXor, nir.AShl, nir.AShr}
	boolOps   = []nir.ArithOp{nir.AAnd, nir.AOr, nir.AXor}
	cmpOps    = []nir.CmpOp{nir.CEq, nir.CNe, nir.CLt, nir.CLe, nir.CGt, nir.CGe}
)

func trunc(k vector.Kind, x int64) int64 {
	switch k {
	case vector.I8:
		return int64(int8(x))
	case vector.I16:
		return int64(int16(x))
	case vector.I32:
		return int64(int32(x))
	}
	return x
}

// refArith is the reference for a op b in kind k. Division and modulo by zero
// yield 0; shift counts are masked to 0..63; min (max) returns a only when
// a < b (a > b).
func refArith(k vector.Kind, op nir.ArithOp, a, b vector.Value) vector.Value {
	switch k {
	case vector.Bool:
		switch op {
		case nir.AAnd:
			return vector.BoolValue(a.B && b.B)
		case nir.AOr:
			return vector.BoolValue(a.B || b.B)
		case nir.AXor:
			return vector.BoolValue(a.B != b.B)
		}
	case vector.F64:
		x, y := a.F, b.F
		switch op {
		case nir.AAdd:
			return vector.F64Value(x + y)
		case nir.ASub:
			return vector.F64Value(x - y)
		case nir.AMul:
			return vector.F64Value(x * y)
		case nir.ADiv:
			return vector.F64Value(x / y)
		case nir.AMin:
			if x < y {
				return vector.F64Value(x)
			}
			return vector.F64Value(y)
		case nir.AMax:
			if x > y {
				return vector.F64Value(x)
			}
			return vector.F64Value(y)
		}
	default:
		x, y := a.I, b.I
		var r int64
		switch op {
		case nir.AAdd:
			r = x + y
		case nir.ASub:
			r = x - y
		case nir.AMul:
			r = x * y
		case nir.ADiv:
			if y != 0 {
				r = x / y
			}
		case nir.AMod:
			if y != 0 {
				r = x % y
			}
		case nir.AAnd:
			r = x & y
		case nir.AOr:
			r = x | y
		case nir.AXor:
			r = x ^ y
		case nir.AShl:
			r = x << (uint64(y) & 63)
		case nir.AShr:
			r = x >> (uint64(y) & 63)
		case nir.AMin:
			r = min(x, y)
		case nir.AMax:
			r = max(x, y)
		default:
			panic(fmt.Sprintf("no reference for %v", op))
		}
		return vector.IntValue(k, trunc(k, r))
	}
	panic(fmt.Sprintf("no reference for %v<%v>", op, k))
}

func refCmp(op nir.CmpOp, a, b vector.Value) bool {
	var lt, gt, eq bool
	switch a.Kind {
	case vector.Bool:
		eq = a.B == b.B
	case vector.F64:
		lt, gt, eq = a.F < b.F, a.F > b.F, a.F == b.F
	default:
		lt, gt, eq = a.I < b.I, a.I > b.I, a.I == b.I
	}
	switch op {
	case nir.CEq:
		return eq
	case nir.CNe:
		return !eq
	case nir.CLt:
		return lt
	case nir.CLe:
		return lt || eq
	case nir.CGt:
		return gt
	case nir.CGe:
		return gt || eq
	}
	panic(fmt.Sprintf("no reference for %v", op))
}

func refUnary(k vector.Kind, op nir.UnaryOp, a vector.Value) vector.Value {
	switch {
	case op == nir.UNot:
		return vector.BoolValue(!a.B)
	case op == nir.USqrt:
		return vector.F64Value(math.Sqrt(a.F))
	case k == vector.F64 && op == nir.UNeg:
		return vector.F64Value(-a.F)
	case k == vector.F64 && op == nir.UAbs:
		return vector.F64Value(math.Abs(a.F))
	case op == nir.UNeg:
		return vector.IntValue(k, trunc(k, -a.I))
	case op == nir.UAbs:
		if a.I < 0 {
			return vector.IntValue(k, trunc(k, -a.I))
		}
		return a
	}
	panic(fmt.Sprintf("no reference for %v<%v>", op, k))
}

func refCast(to vector.Kind, a vector.Value) vector.Value {
	switch {
	case to == vector.F64:
		return vector.F64Value(float64(a.I))
	case a.Kind == vector.F64:
		return vector.IntValue(to, trunc(to, int64(a.F)))
	}
	return vector.IntValue(to, trunc(to, a.I))
}

// same compares results bit for bit: it tells -0 from +0 and matches any NaN.
func same(a, b vector.Value) bool {
	if a.Kind == vector.F64 && b.Kind == vector.F64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (math.IsNaN(a.F) && math.IsNaN(b.F))
	}
	return a.Equal(b)
}

// edges returns kind k's edge values: zero, ±1, both ends of every integer
// width, shift counts around each width and past 63, and for f64 NaN, ±0,
// ±Inf and the extreme magnitudes. Bools come in a mixed run.
func edges(k vector.Kind) []vector.Value {
	switch k {
	case vector.Bool:
		// Repeated so every window has elements to cover.
		var out []vector.Value
		for _, b := range []bool{false, true, true, false, true, false, false, true} {
			out = append(out, vector.BoolValue(b))
		}
		return out
	case vector.F64:
		var out []vector.Value
		for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 7, 0.5, -100.75, 1e18, -1e18,
			math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
			out = append(out, vector.F64Value(f))
		}
		return out
	}
	var out []vector.Value
	for _, x := range []int64{0, 1, -1, 2, -2, 3, -3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, -100, 1000, -1000,
		math.MinInt8, math.MaxInt8, math.MinInt16, math.MaxInt16, math.MinInt32, math.MaxInt32,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1} {
		v := vector.IntValue(k, trunc(k, x))
		if !slices.ContainsFunc(out, v.Equal) {
			out = append(out, v)
		}
	}
	return out
}

func fromValues(k vector.Kind, vals []vector.Value) *vector.Vector {
	v := vector.NewLen(k, len(vals))
	for i, x := range vals {
		v.Set(i, x)
	}
	return v
}

// window is one way of running a kernel: the whole chunk without a
// selection, a strict sub-window without one, and a sub-window of a
// selection vector.
type window struct {
	name   string
	sel    vector.Sel
	lo, hi int
}

func windows(n int) []window {
	var sel vector.Sel
	for i := 0; i < n; i += 3 {
		sel = append(sel, int32(i))
	}
	return []window{
		{"all", nil, 0, n},
		{"range", nil, 2, n - 3},
		{"sel", sel, 1, len(sel) - 1},
	}
}

// positions lists the element positions w covers, in order.
func (w window) positions() []int {
	var out []int
	for j := w.lo; j < w.hi; j++ {
		if w.sel == nil {
			out = append(out, j)
		} else {
			out = append(out, int(w.sel[j]))
		}
	}
	return out
}

// checkMap runs a positional kernel through every window against a dst
// prefilled with a marker, and checks dst[i] == want(i) on the covered
// positions and the marker everywhere else.
func checkMap(t *testing.T, dstKind vector.Kind, n int, run func(dst *vector.Vector, w window), want func(i int) vector.Value) {
	t.Helper()
	marker := vector.IntValue(vector.I64, 42)
	if dstKind == vector.Bool {
		marker = vector.BoolValue(true)
	}
	for _, w := range windows(n) {
		dst := vector.NewLen(dstKind, n)
		for i := 0; i < n; i++ {
			dst.Set(i, marker)
		}
		untouched := dst.Clone()
		run(dst, w)
		covered := map[int]bool{}
		for _, i := range w.positions() {
			covered[i] = true
			if got, exp := dst.Get(i), want(i); !same(got, exp) {
				t.Fatalf("%s window: element %d = %v, want %v", w.name, i, got, exp)
			}
		}
		for i := 0; i < n; i++ {
			if !covered[i] && !same(dst.Get(i), untouched.Get(i)) {
				t.Fatalf("%s window: wrote uncovered element %d", w.name, i)
			}
		}
	}
}

// crossVectors returns a and b holding every (x, y) pair of vals.
func crossVectors(k vector.Kind, vals []vector.Value) (a, b *vector.Vector) {
	var xs, ys []vector.Value
	for _, x := range vals {
		for _, y := range vals {
			xs, ys = append(xs, x), append(ys, y)
		}
	}
	return fromValues(k, xs), fromValues(k, ys)
}

func TestKernelsMatchReference(t *testing.T) {
	for key, f := range mapBinVV {
		t.Run(fmt.Sprintf("bin.vv/%v/%v", key.K, key.Op), func(t *testing.T) {
			a, b := crossVectors(key.K, edges(key.K))
			checkMap(t, key.K, a.Len(), func(dst *vector.Vector, w window) { f(dst, a, b, w.sel, w.lo, w.hi) },
				func(i int) vector.Value { return refArith(key.K, key.Op, a.Get(i), b.Get(i)) })
		})
	}
	for key, f := range mapBinVS {
		t.Run(fmt.Sprintf("bin.vs/%v/%v", key.K, key.Op), func(t *testing.T) {
			a := fromValues(key.K, edges(key.K))
			for _, s := range edges(key.K) {
				checkMap(t, key.K, a.Len(), func(dst *vector.Vector, w window) { f(dst, a, s, w.sel, w.lo, w.hi) },
					func(i int) vector.Value { return refArith(key.K, key.Op, a.Get(i), s) })
			}
		})
	}
	for key, f := range mapBinSV {
		t.Run(fmt.Sprintf("bin.sv/%v/%v", key.K, key.Op), func(t *testing.T) {
			b := fromValues(key.K, edges(key.K))
			for _, s := range edges(key.K) {
				checkMap(t, key.K, b.Len(), func(dst *vector.Vector, w window) { f(dst, s, b, w.sel, w.lo, w.hi) },
					func(i int) vector.Value { return refArith(key.K, key.Op, s, b.Get(i)) })
			}
		})
	}
	for key, f := range mapCmpVV {
		t.Run(fmt.Sprintf("cmp.vv/%v/%v", key.K, key.Op), func(t *testing.T) {
			a, b := crossVectors(key.K, edges(key.K))
			checkMap(t, vector.Bool, a.Len(), func(dst *vector.Vector, w window) { f(dst, a, b, w.sel, w.lo, w.hi) },
				func(i int) vector.Value { return vector.BoolValue(refCmp(key.Op, a.Get(i), b.Get(i))) })
		})
	}
	for key, f := range mapCmpVS {
		t.Run(fmt.Sprintf("cmp.vs/%v/%v", key.K, key.Op), func(t *testing.T) {
			a := fromValues(key.K, edges(key.K))
			for _, s := range edges(key.K) {
				checkMap(t, vector.Bool, a.Len(), func(dst *vector.Vector, w window) { f(dst, a, s, w.sel, w.lo, w.hi) },
					func(i int) vector.Value { return vector.BoolValue(refCmp(key.Op, a.Get(i), s)) })
			}
		})
	}
	for key, f := range mapCmpSV {
		t.Run(fmt.Sprintf("cmp.sv/%v/%v", key.K, key.Op), func(t *testing.T) {
			b := fromValues(key.K, edges(key.K))
			for _, s := range edges(key.K) {
				checkMap(t, vector.Bool, b.Len(), func(dst *vector.Vector, w window) { f(dst, s, b, w.sel, w.lo, w.hi) },
					func(i int) vector.Value { return vector.BoolValue(refCmp(key.Op, s, b.Get(i))) })
			}
		})
	}
	for key, f := range mapUn {
		t.Run(fmt.Sprintf("un/%v/%v", key.K, key.Op), func(t *testing.T) {
			a := fromValues(key.K, edges(key.K))
			checkMap(t, key.K, a.Len(), func(dst *vector.Vector, w window) { f(dst, a, w.sel, w.lo, w.hi) },
				func(i int) vector.Value { return refUnary(key.K, key.Op, a.Get(i)) })
		})
	}
	for key, f := range castKernels {
		t.Run(fmt.Sprintf("cast/%v/%v", key.From, key.To), func(t *testing.T) {
			// Go leaves f64→integer conversion of out-of-range values to the
			// implementation, so only values whose truncation fits the
			// target are checked.
			var vals []vector.Value
			for _, x := range edges(key.From) {
				if x.Kind != vector.F64 || fitsInt(key.To, x.F) {
					vals = append(vals, x)
				}
			}
			a := fromValues(key.From, vals)
			checkMap(t, key.To, a.Len(), func(dst *vector.Vector, w window) { f(dst, a, w.sel, w.lo, w.hi) },
				func(i int) vector.Value { return refCast(key.To, a.Get(i)) })
		})
	}
	// pair: two constant maps chained, the second in place on the first's
	// output; a kernel's dst may alias its operand.
	for key, first := range mapBinVS {
		if key.K == vector.Bool || !slices.Contains(floatOps, key.Op) {
			continue
		}
		for _, op2 := range floatOps {
			second := mapBinVS[binKey{key.K, op2}]
			t.Run(fmt.Sprintf("pair/%v/%v.%v", key.K, key.Op, op2), func(t *testing.T) {
				a := fromValues(key.K, edges(key.K))
				consts := pairConsts(key.K)
				for _, s1 := range consts {
					for _, s2 := range consts {
						checkMap(t, key.K, a.Len(), func(dst *vector.Vector, w window) {
							first(dst, a, s1, w.sel, w.lo, w.hi)
							second(dst, dst, s2, w.sel, w.lo, w.hi)
						}, func(i int) vector.Value {
							return refArith(key.K, op2, refArith(key.K, key.Op, a.Get(i), s1), s2)
						})
					}
				}
			})
		}
	}
	for key, f := range selCmpInto {
		t.Run(fmt.Sprintf("select/%v/%v", key.K, key.Op), func(t *testing.T) {
			a := fromValues(key.K, edges(key.K))
			for _, s := range edges(key.K) {
				for _, w := range windows(a.Len()) {
					var want vector.Sel
					for _, i := range w.positions() {
						if refCmp(key.Op, a.Get(i), s) {
							want = append(want, int32(i))
						}
					}
					if got := f(nil, a, s, w.sel, w.lo, w.hi); got == nil || !slices.Equal(got, want) {
						t.Fatalf("%s window, s=%v: got %v, want %v", w.name, s, got, want)
					}
				}
			}
		})
	}
	for key, f := range foldKernels {
		t.Run(fmt.Sprintf("fold/%v/%v", key.K, key.Op), func(t *testing.T) {
			a := fromValues(key.K, edges(key.K))
			for _, init := range edges(key.K) {
				for _, w := range windows(a.Len()) {
					want := init
					for _, i := range w.positions() {
						want = refArith(key.K, key.Op, want, a.Get(i))
					}
					if got := f(init, a, w.sel, w.lo, w.hi); !same(got, want) {
						t.Fatalf("%s window, init=%v: got %v, want %v", w.name, init, got, want)
					}
				}
			}
		})
	}
}

// fitsInt reports whether f truncated toward zero is a value of integer kind k.
func fitsInt(k vector.Kind, f float64) bool {
	if k == vector.F64 {
		return true
	}
	bits := map[vector.Kind]float64{vector.I8: 7, vector.I16: 15, vector.I32: 31, vector.I64: 63}[k]
	lim := math.Exp2(bits)
	return f > -lim-1 && f < lim
}

// pairConsts is a short constant list for the chained constant maps.
func pairConsts(k vector.Kind) []vector.Value {
	if k == vector.F64 {
		return []vector.Value{vector.F64Value(0), vector.F64Value(math.Copysign(0, -1)), vector.F64Value(-1),
			vector.F64Value(2.5), vector.F64Value(math.NaN()), vector.F64Value(math.Inf(1))}
	}
	var out []vector.Value
	for _, x := range []int64{0, 1, -1, 7, math.MinInt64, math.MaxInt64} {
		out = append(out, vector.IntValue(k, trunc(k, x)))
	}
	return out
}

// TestKernelInventoryComplete pins the exact set of lookups that succeed:
// 364 kernels over the numeric kinds and bool.
func TestKernelInventoryComplete(t *testing.T) {
	wantBin := map[binKey]bool{}
	wantCmp := map[cmpKey]bool{}
	wantUn := map[unKey]bool{{vector.F64, nir.USqrt}: true, {vector.Bool, nir.UNot}: true}
	wantSel := map[cmpKey]bool{}
	wantFold := map[binKey]bool{}
	wantCast := map[castKey]bool{}
	for _, k := range numKinds {
		ops := floatOps
		if k != vector.F64 {
			ops = append(slices.Clone(floatOps), intOnlyOp...)
		}
		for _, op := range ops {
			wantBin[binKey{k, op}] = true
		}
		for _, op := range []nir.ArithOp{nir.AAdd, nir.AMul, nir.AMin, nir.AMax} {
			wantFold[binKey{k, op}] = true
		}
		if k != vector.F64 {
			for _, op := range boolOps {
				wantFold[binKey{k, op}] = true
			}
		}
		for _, op := range cmpOps {
			wantCmp[cmpKey{k, op}] = true
			wantSel[cmpKey{k, op}] = true
		}
		wantUn[unKey{k, nir.UNeg}] = true
		wantUn[unKey{k, nir.UAbs}] = true
		for _, to := range numKinds {
			if to != k {
				wantCast[castKey{k, to}] = true
			}
		}
	}
	for _, op := range boolOps {
		wantBin[binKey{vector.Bool, op}] = true
		wantFold[binKey{vector.Bool, op}] = true
	}
	wantCmp[cmpKey{vector.Bool, nir.CEq}] = true
	wantCmp[cmpKey{vector.Bool, nir.CNe}] = true

	checkKeys(t, "map.bin vv", mapBinVV, wantBin)
	checkKeys(t, "map.bin vs", mapBinVS, wantBin)
	checkKeys(t, "map.bin sv", mapBinSV, wantBin)
	checkKeys(t, "map.cmp vv", mapCmpVV, wantCmp)
	checkKeys(t, "map.cmp vs", mapCmpVS, wantCmp)
	checkKeys(t, "map.cmp sv", mapCmpSV, wantCmp)
	checkKeys(t, "map.un", mapUn, wantUn)
	checkKeys(t, "select", selCmpInto, wantSel)
	checkKeys(t, "fold", foldKernels, wantFold)
	checkKeys(t, "cast", castKernels, wantCast)
	if Count() != 364 {
		t.Errorf("kernel count = %d, want 364", Count())
	}

	// f64 has no shift, modulo or bitwise kernels in any shape.
	for _, op := range intOnlyOp {
		_, vv := MapBinVV(vector.F64, op)
		_, vs := MapBinVS(vector.F64, op)
		_, sv := MapBinSV(vector.F64, op)
		_, fold := Fold(vector.F64, op)
		if vv || vs || sv || fold {
			t.Errorf("f64 %v kernel must not exist", op)
		}
	}
}

func checkKeys[K comparable, F any](t *testing.T, table string, got map[K]F, want map[K]bool) {
	t.Helper()
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: missing %+v", table, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected %+v", table, k)
		}
	}
}
