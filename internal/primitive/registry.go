// Package primitive is the pre-compiled vectorized kernel library the
// interpreter (and the fused traces) dispatch into. §III-A of the paper:
// "specialized functions that operate on a chunk of data in a tight loop are
// needed. We can generate and compile these functions during startup through
// our compilation infrastructure, such that they will be available during
// runtime with near to zero compilation effort."
//
// Here the Go compiler does the generating: kernels.go holds one generic loop
// per (operation, operand shape), each with a no-selection and a
// selection-vector variant, and init instantiates it for every element kind
// (i8, i16, i32, i64, f64; bool where defined) into the lookup tables below —
// the classic MonetDB/Vectorwise primitive matrix. Each kind is its own GC
// shape, so every instance is a monomorphic tight loop.
//
// ops.go defines each operator's element-level meaning once (total
// division and modulo, masked shift counts, min/max, abs, casts). The kernels
// and the scalar evaluators (ScalarArith, ScalarCmp, ScalarUnary, ScalarCast)
// that the interpreter uses for scalar registers both call those
// definitions, so the vector and scalar paths compute the same values.
package primitive

import (
	"fmt"

	"repro/internal/nir"
	"repro/internal/vector"
)

// Kernel signatures. All kernels write results positionally: dst[i] is
// produced for every selected i, so downstream operations can keep using the
// same selection vector without re-alignment.
//
// Every kernel operates on a [lo, hi) window of the index space: positions
// lo..hi-1 without a selection vector, entries sel[lo..hi-1] with one. Fused
// traces and morsel workers use windows to process ranges without slicing;
// whole-chunk callers pass lo=0, hi=n (use Span to compute n).
type (
	// BinVVFunc computes dst[i] = a[i] op b[i].
	BinVVFunc func(dst, a, b *vector.Vector, sel vector.Sel, lo, hi int)
	// BinVSFunc computes dst[i] = a[i] op s.
	BinVSFunc func(dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int)
	// BinSVFunc computes dst[i] = s op b[i].
	BinSVFunc func(dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int)
	// UnFunc computes dst[i] = op a[i].
	UnFunc func(dst, a *vector.Vector, sel vector.Sel, lo, hi int)
	// SelCmpFunc returns the sub-selection of the window where a[i] cmp s.
	SelCmpFunc func(a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel
	// SelCmpIntoFunc writes the sub-selection of the window where a[i] cmp s
	// into dst[:0] and returns it. dst may alias sel: the writes trail the
	// reads, so a selection narrows in place without allocating.
	SelCmpIntoFunc func(dst vector.Sel, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel
	// FoldFunc reduces the windowed elements of a with a fixed operator.
	FoldFunc func(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value
	// CastFunc converts elements between kinds.
	CastFunc func(dst, a *vector.Vector, sel vector.Sel, lo, hi int)
)

// Span returns the window upper bound for whole-chunk execution: len(sel)
// when a selection vector is present, the vector length otherwise.
func Span(v *vector.Vector, sel vector.Sel) int {
	if sel != nil {
		return len(sel)
	}
	return v.Len()
}

type binKey struct {
	K  vector.Kind
	Op nir.ArithOp
}

type cmpKey struct {
	K  vector.Kind
	Op nir.CmpOp
}

type unKey struct {
	K  vector.Kind
	Op nir.UnaryOp
}

type castKey struct {
	From, To vector.Kind
}

var (
	mapBinVV    = map[binKey]BinVVFunc{}
	mapBinVS    = map[binKey]BinVSFunc{}
	mapBinSV    = map[binKey]BinSVFunc{}
	mapCmpVV    = map[cmpKey]BinVVFunc{}
	mapCmpVS    = map[cmpKey]BinVSFunc{}
	mapCmpSV    = map[cmpKey]BinSVFunc{}
	mapUn       = map[unKey]UnFunc{}
	selCmpInto  = map[cmpKey]SelCmpIntoFunc{}
	foldKernels = map[binKey]FoldFunc{}
	castKernels = map[castKey]CastFunc{}
)

// Arg is one operand of a bound kernel: Vec for an operand read from a
// flow, Val for one read from a scalar register.
type Arg struct {
	Vec *vector.Vector
	Val vector.Value
}

// Kernel is an element-wise instruction bound to the kernel for its operand
// shape. It is a plain value, so binding allocates nothing: the interpreter
// binds per execution, compiled code once per program.
type Kernel struct {
	out vector.Kind
	vv  BinVVFunc
	vs  BinVSFunc
	sv  BinSVFunc
	un  UnFunc
}

// Bind binds an element-wise instruction of prog — map.bin, map.cmp, map.un,
// or a cast of a flow to another kind — to its kernel. The operand shapes
// (vector or scalar) and a cast's source kind come from prog's register
// table. This is the one place where instructions meet the map and cast
// kernel tables.
func Bind(prog *nir.Program, in *nir.Instr) (Kernel, error) {
	k := Kernel{out: in.Kind}
	ok := false
	switch in.Op {
	case nir.OpMapBin, nir.OpMapCmp:
		aScalar, bScalar := prog.Reg(in.A).Scalar, prog.Reg(in.B).Scalar
		if aScalar && bScalar {
			return Kernel{}, fmt.Errorf("primitive: %s has two scalar operands", in)
		}
		if in.Op == nir.OpMapBin {
			key := binKey{in.Kind, in.Arith}
			switch {
			case aScalar:
				k.sv, ok = mapBinSV[key]
			case bScalar:
				k.vs, ok = mapBinVS[key]
			default:
				k.vv, ok = mapBinVV[key]
			}
			break
		}
		k.out = vector.Bool
		key := cmpKey{in.Kind, in.Cmp}
		switch {
		case aScalar:
			k.sv, ok = mapCmpSV[key]
		case bScalar:
			k.vs, ok = mapCmpVS[key]
		default:
			k.vv, ok = mapCmpVV[key]
		}
	case nir.OpMapUn:
		k.un, ok = mapUn[unKey{in.Kind, in.Unary}]
	case nir.OpCast:
		if a := prog.Reg(in.A); !a.Scalar {
			var f CastFunc
			f, ok = castKernels[castKey{a.Kind, in.Kind}]
			k.un = UnFunc(f)
		}
	}
	if !ok {
		return Kernel{}, fmt.Errorf("primitive: no kernel for %s", in)
	}
	return k, nil
}

// Out returns the element kind the kernel writes.
func (k Kernel) Out() vector.Kind { return k.out }

// Run applies the kernel to the [lo, hi) window, writing dst positionally.
// a and b are the instruction's operands; b is ignored by unary kernels.
func (k Kernel) Run(dst *vector.Vector, a, b Arg, sel vector.Sel, lo, hi int) {
	switch {
	case k.vv != nil:
		k.vv(dst, a.Vec, b.Vec, sel, lo, hi)
	case k.vs != nil:
		k.vs(dst, a.Vec, b.Val, sel, lo, hi)
	case k.sv != nil:
		k.sv(dst, a.Val, b.Vec, sel, lo, hi)
	default:
		k.un(dst, a.Vec, sel, lo, hi)
	}
}

// MapBinVV looks up the vector⊗vector arithmetic kernel.
func MapBinVV(k vector.Kind, op nir.ArithOp) (BinVVFunc, bool) {
	f, ok := mapBinVV[binKey{k, op}]
	return f, ok
}

// MapBinVS looks up the vector⊗scalar arithmetic kernel.
func MapBinVS(k vector.Kind, op nir.ArithOp) (BinVSFunc, bool) {
	f, ok := mapBinVS[binKey{k, op}]
	return f, ok
}

// MapBinSV looks up the scalar⊗vector arithmetic kernel.
func MapBinSV(k vector.Kind, op nir.ArithOp) (BinSVFunc, bool) {
	f, ok := mapBinSV[binKey{k, op}]
	return f, ok
}

// MapCmpVV looks up the vector⊗vector comparison kernel.
func MapCmpVV(k vector.Kind, op nir.CmpOp) (BinVVFunc, bool) {
	f, ok := mapCmpVV[cmpKey{k, op}]
	return f, ok
}

// MapCmpVS looks up the vector⊗scalar comparison kernel.
func MapCmpVS(k vector.Kind, op nir.CmpOp) (BinVSFunc, bool) {
	f, ok := mapCmpVS[cmpKey{k, op}]
	return f, ok
}

// MapCmpSV looks up the scalar⊗vector comparison kernel.
func MapCmpSV(k vector.Kind, op nir.CmpOp) (BinSVFunc, bool) {
	f, ok := mapCmpSV[cmpKey{k, op}]
	return f, ok
}

// MapUn looks up the unary map kernel.
func MapUn(k vector.Kind, op nir.UnaryOp) (UnFunc, bool) {
	f, ok := mapUn[unKey{k, op}]
	return f, ok
}

// SelectCmp looks up the fused selection kernel (filter against a scalar)
// in a form that returns a freshly allocated selection; see SelectCmpInto.
func SelectCmp(k vector.Kind, op nir.CmpOp) (SelCmpFunc, bool) {
	f, ok := selCmpInto[cmpKey{k, op}]
	if !ok {
		return nil, false
	}
	return func(a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
		return f(nil, a, b, sel, lo, hi)
	}, true
}

// SelectCmpInto looks up the in-place form of the fused selection kernel.
func SelectCmpInto(k vector.Kind, op nir.CmpOp) (SelCmpIntoFunc, bool) {
	f, ok := selCmpInto[cmpKey{k, op}]
	return f, ok
}

// Fold looks up the reduction kernel.
func Fold(k vector.Kind, op nir.ArithOp) (FoldFunc, bool) {
	f, ok := foldKernels[binKey{k, op}]
	return f, ok
}

// Cast looks up the element-kind conversion kernel.
func Cast(from, to vector.Kind) (CastFunc, bool) {
	f, ok := castKernels[castKey{from, to}]
	return f, ok
}

// Count returns the number of registered kernels, the "pre-compiled at
// startup" inventory the VM reports.
func Count() int {
	return len(mapBinVV) + len(mapBinVS) + len(mapBinSV) +
		len(mapCmpVV) + len(mapCmpVS) + len(mapCmpSV) +
		len(mapUn) + len(selCmpInto) + len(foldKernels) + len(castKernels)
}

// ---------------------------------------------------------------------------
// Hand-written kernels for the memory skeletons and selection plumbing.

// SelectFromBool narrows sel to the rows where the (positionally aligned)
// bool vector is true, into a freshly allocated selection.
func SelectFromBool(mask *vector.Vector, sel vector.Sel) vector.Sel {
	return SelectFromBoolInto(make(vector.Sel, 0, sel.Count(mask.Len())), mask, sel)
}

// SelectFromBoolInto is SelectFromBool writing into dst[:0]. dst may alias
// sel: the writes trail the reads. The result is never nil, even for a nil
// dst, because a nil selection would mean every row.
func SelectFromBoolInto(dst vector.Sel, mask *vector.Vector, sel vector.Sel) vector.Sel {
	m := mask.Bool()
	out := dst[:0]
	if out == nil {
		out = vector.Sel{}
	}
	if sel == nil {
		for i := range m {
			if m[i] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if m[i] {
			out = append(out, i)
		}
	}
	return out
}

// Iota fills dst (kind i64, length n) with 0..n-1 offset by start.
func Iota(dst *vector.Vector, start int64) {
	d := dst.I64()
	for i := range d {
		d[i] = start + int64(i)
	}
}

// Gather reads data at the positions given by the selected elements of idx:
// dst[i] = data[idx[i]] for i in sel. Out-of-range indexes produce the zero
// value (the host is expected to validate bounds; zero-fill keeps kernels
// total, matching the safe-division convention).
func Gather(dst, data, idx *vector.Vector, sel vector.Sel) {
	n := data.Len()
	ix := toIndexes(idx)
	apply := func(i int) {
		j := ix(i)
		if j < 0 || j >= int64(n) {
			dst.Set(i, zeroOf(dst.Kind()))
			return
		}
		dst.Set(i, data.Get(int(j)))
	}
	switch dst.Kind() {
	case vector.I64:
		dd, dv := dst.I64(), data.I64()
		forSel(dst.Len(), sel, func(i int) {
			if j := ix(i); j >= 0 && j < int64(n) {
				dd[i] = dv[j]
			} else {
				dd[i] = 0
			}
		})
	case vector.I32:
		dd, dv := dst.I32(), data.I32()
		forSel(dst.Len(), sel, func(i int) {
			if j := ix(i); j >= 0 && j < int64(n) {
				dd[i] = dv[j]
			} else {
				dd[i] = 0
			}
		})
	case vector.F64:
		dd, dv := dst.F64(), data.F64()
		forSel(dst.Len(), sel, func(i int) {
			if j := ix(i); j >= 0 && j < int64(n) {
				dd[i] = dv[j]
			} else {
				dd[i] = 0
			}
		})
	default:
		forSel(dst.Len(), sel, apply)
	}
}

// Scatter writes the selected elements of val to data at positions idx,
// resolving duplicate target positions with the conflict function
// (Table I: "using function f to handle conflicts").
func Scatter(data, idx, val *vector.Vector, sel vector.Sel, conf nir.Conflict) {
	ix := toIndexes(idx)
	n := data.Len()
	// The conflict function combines values scattered to the same position
	// within this call; the first write to a position overwrites whatever
	// the array held before.
	seen := map[int64]bool{}
	forSel(val.Len(), sel, func(i int) {
		j := ix(i)
		if j < 0 || j >= int64(n) {
			return
		}
		v := val.Get(i)
		if !seen[j] {
			data.Set(int(j), v)
			seen[j] = true
			return
		}
		cur := data.Get(int(j))
		switch conf {
		case nir.ConfLast:
			data.Set(int(j), v)
		case nir.ConfFirst:
			// keep cur
		case nir.ConfSum:
			data.Set(int(j), addValues(cur, v))
		case nir.ConfMin:
			if lessValue(v, cur) {
				data.Set(int(j), v)
			}
		case nir.ConfMax:
			if lessValue(cur, v) {
				data.Set(int(j), v)
			}
		}
	})
}

// ConflictOf maps a conflict-function name to its nir code. Panics on
// unknown names (validated during normalization).
func ConflictOf(name string) nir.Conflict {
	switch name {
	case "last", "":
		return nir.ConfLast
	case "first":
		return nir.ConfFirst
	case "sum":
		return nir.ConfSum
	case "min":
		return nir.ConfMin
	case "max":
		return nir.ConfMax
	}
	panic(fmt.Sprintf("primitive: unknown conflict function %q", name))
}

func addValues(a, b vector.Value) vector.Value {
	if a.Kind == vector.F64 {
		return vector.F64Value(a.F + b.F)
	}
	return vector.IntValue(a.Kind, a.I+b.I)
}

func lessValue(a, b vector.Value) bool {
	switch a.Kind {
	case vector.F64:
		return a.F < b.F
	case vector.Str:
		return a.S < b.S
	default:
		return a.I < b.I
	}
}

func zeroOf(k vector.Kind) vector.Value {
	switch k {
	case vector.F64:
		return vector.F64Value(0)
	case vector.Str:
		return vector.StrValue("")
	case vector.Bool:
		return vector.BoolValue(false)
	default:
		return vector.IntValue(k, 0)
	}
}

// toIndexes returns an accessor reading idx[i] as int64 regardless of the
// index vector's integer kind.
func toIndexes(idx *vector.Vector) func(int) int64 {
	switch idx.Kind() {
	case vector.I64:
		d := idx.I64()
		return func(i int) int64 { return d[i] }
	case vector.I32:
		d := idx.I32()
		return func(i int) int64 { return int64(d[i]) }
	case vector.I16:
		d := idx.I16()
		return func(i int) int64 { return int64(d[i]) }
	case vector.I8:
		d := idx.I8()
		return func(i int) int64 { return int64(d[i]) }
	}
	panic(fmt.Sprintf("primitive: index vector must be integer, got %v", idx.Kind()))
}

func forSel(n int, sel vector.Sel, fn func(int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for _, i := range sel {
		fn(int(i))
	}
}

// ---------------------------------------------------------------------------
// Merge kernels over sorted flows (the abstract merge skeleton).

// MergeJoin returns, for two sorted vectors, the pairs of matching positions
// (li, ri) in join order. Duplicate keys produce the full cross product of
// matches, as a relational merge join requires.
func MergeJoin(a, b *vector.Vector) (li, ri vector.Sel) {
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		av, bv := a.Get(i), b.Get(j)
		switch {
		case lessValue(av, bv):
			i++
		case lessValue(bv, av):
			j++
		default:
			// Emit the cross product of the equal runs.
			i2 := i
			for i2 < a.Len() && a.Get(i2).Equal(bv) {
				j2 := j
				for j2 < b.Len() && b.Get(j2).Equal(av) {
					li = append(li, int32(i2))
					ri = append(ri, int32(j2))
					j2++
				}
				i2++
			}
			// Skip both runs.
			for i < a.Len() && a.Get(i).Equal(bv) {
				i++
			}
			for j < b.Len() && b.Get(j).Equal(av) {
				j++
			}
		}
	}
	return li, ri
}

// MergeValues computes the merge skeleton in value space: join yields the
// matched left values, union/diff/intersect the respective sorted multiset
// results.
func MergeValues(flavor nir.MergeFlavor, a, b *vector.Vector) *vector.Vector {
	out := vector.New(a.Kind(), 0, a.Len())
	i, j := 0, 0
	switch flavor {
	case nir.MJoin, nir.MIntersect:
		for i < a.Len() && j < b.Len() {
			av, bv := a.Get(i), b.Get(j)
			switch {
			case lessValue(av, bv):
				i++
			case lessValue(bv, av):
				j++
			default:
				out.AppendValue(av)
				i++
				j++
			}
		}
	case nir.MUnion:
		for i < a.Len() && j < b.Len() {
			av, bv := a.Get(i), b.Get(j)
			switch {
			case lessValue(av, bv):
				out.AppendValue(av)
				i++
			case lessValue(bv, av):
				out.AppendValue(bv)
				j++
			default:
				out.AppendValue(av)
				i++
				j++
			}
		}
		for ; i < a.Len(); i++ {
			out.AppendValue(a.Get(i))
		}
		for ; j < b.Len(); j++ {
			out.AppendValue(b.Get(j))
		}
	case nir.MDiff:
		for i < a.Len() {
			av := a.Get(i)
			for j < b.Len() && lessValue(b.Get(j), av) {
				j++
			}
			if j < b.Len() && b.Get(j).Equal(av) {
				i++
				continue
			}
			out.AppendValue(av)
			i++
		}
	default:
		panic(fmt.Sprintf("primitive: unknown merge flavor %v", flavor))
	}
	return out
}
