package interp

import (
	"math"
	"testing"

	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// The scalar evaluators must compute exactly what the vector kernels compute:
// for every (op, kind), OpBinS, OpUnS and a scalar OpCast on scalars equal the
// kernel run on one-element vectors, and a scalar op exists exactly when the
// kernel does.

var scalarTestKinds = []vector.Kind{vector.Bool, vector.I8, vector.I16, vector.I32, vector.I64, vector.F64}

func scalarEdges(k vector.Kind) []vector.Value {
	switch k {
	case vector.Bool:
		return []vector.Value{vector.BoolValue(false), vector.BoolValue(true)}
	case vector.F64:
		var out []vector.Value
		for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -7.75, 200.5, -129.5, 3e9 + 1, 1e300,
			math.NaN(), math.Inf(1), math.Inf(-1)} {
			out = append(out, vector.F64Value(f))
		}
		return out
	}
	var out []vector.Value
	for _, x := range []int64{0, 1, -1, 2, 7, 8, 9, 31, 63, 64, 65, -100, 1000,
		math.MinInt8, math.MaxInt8, math.MinInt16, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64} {
		v := vector.NewLen(k, 1)
		v.Set(0, vector.IntValue(k, x))
		out = append(out, v.Get(0))
	}
	return out
}

// sameValue compares kinds and payloads bit for bit (any NaN matches).
func sameValue(a, b vector.Value) bool {
	if a.Kind == vector.F64 && b.Kind == vector.F64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (math.IsNaN(a.F) && math.IsNaN(b.F))
	}
	return a.Equal(b)
}

func oneElem(v vector.Value) *vector.Vector {
	out := vector.NewLen(v.Kind, 1)
	out.Set(0, v)
	return out
}

// scalarEnv returns an environment with scalar registers a, b (kind k) and a
// destination register 2 of kind dst.
func scalarEnv(t *testing.T, k, dst vector.Kind) *Env {
	t.Helper()
	env, err := NewEnv(&nir.Program{Regs: []nir.RegInfo{
		{Kind: k, Scalar: true}, {Kind: k, Scalar: true}, {Kind: dst, Scalar: true},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestScalarArithMatchesKernels(t *testing.T) {
	for _, k := range scalarTestKinds {
		for op := nir.AAdd; op <= nir.AMax; op++ {
			kernel, ok := primitive.MapBinVV(k, op)
			env := scalarEnv(t, k, k)
			in := &nir.Instr{Op: nir.OpBinS, Dst: 2, A: 0, B: 1, C: nir.NoReg, Arith: op, Kind: k}
			for _, a := range scalarEdges(k) {
				for _, b := range scalarEdges(k) {
					env.SetScalar(0, a)
					env.SetScalar(1, b)
					_, err := ExecInstr(env, in)
					if !ok {
						if err == nil {
							t.Fatalf("%v<%v>: scalar op exists without a kernel", op, k)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%v<%v>: %v", op, k, err)
					}
					dst := vector.NewLen(k, 1)
					kernel(dst, oneElem(a), oneElem(b), nil, 0, 1)
					if got, want := env.ScalarOf(2), dst.Get(0); !sameValue(got, want) {
						t.Fatalf("%v<%v>(%v, %v): scalar %v, kernel %v", op, k, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestScalarCmpMatchesKernels(t *testing.T) {
	for _, k := range scalarTestKinds {
		for op := nir.CEq; op <= nir.CGe; op++ {
			kernel, ok := primitive.MapCmpVV(k, op)
			if !ok {
				// Scalar comparisons also order bools and strings, which
				// have no comparison kernel.
				continue
			}
			env := scalarEnv(t, k, vector.Bool)
			in := &nir.Instr{Op: nir.OpBinS, Dst: 2, A: 0, B: 1, C: nir.NoReg, Cmp: op, Kind: k}
			for _, a := range scalarEdges(k) {
				for _, b := range scalarEdges(k) {
					env.SetScalar(0, a)
					env.SetScalar(1, b)
					if _, err := ExecInstr(env, in); err != nil {
						t.Fatalf("%v<%v>: %v", op, k, err)
					}
					dst := vector.NewLen(vector.Bool, 1)
					kernel(dst, oneElem(a), oneElem(b), nil, 0, 1)
					if got, want := env.ScalarOf(2), dst.Get(0); !sameValue(got, want) {
						t.Fatalf("%v<%v>(%v, %v): scalar %v, kernel %v", op, k, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestScalarUnaryMatchesKernels(t *testing.T) {
	for _, k := range scalarTestKinds {
		for op := nir.UNeg; op <= nir.USqrt; op++ {
			kernel, ok := primitive.MapUn(k, op)
			env := scalarEnv(t, k, k)
			in := &nir.Instr{Op: nir.OpUnS, Dst: 2, A: 0, B: nir.NoReg, C: nir.NoReg, Unary: op, Kind: k}
			for _, a := range scalarEdges(k) {
				env.SetScalar(0, a)
				_, err := ExecInstr(env, in)
				if !ok {
					if err == nil {
						t.Fatalf("%v<%v>: scalar op exists without a kernel", op, k)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v<%v>: %v", op, k, err)
				}
				dst := vector.NewLen(k, 1)
				kernel(dst, oneElem(a), nil, 0, 1)
				if got, want := env.ScalarOf(2), dst.Get(0); !sameValue(got, want) {
					t.Fatalf("%v<%v>(%v): scalar %v, kernel %v", op, k, a, got, want)
				}
			}
		}
	}
}

func TestScalarCastMatchesKernels(t *testing.T) {
	for _, from := range scalarTestKinds {
		for _, to := range scalarTestKinds {
			if from == to {
				continue
			}
			kernel, ok := primitive.Cast(from, to)
			env := scalarEnv(t, from, to)
			in := &nir.Instr{Op: nir.OpCast, Dst: 2, A: 0, B: nir.NoReg, C: nir.NoReg, Kind: to}
			for _, a := range scalarEdges(from) {
				env.SetScalar(0, a)
				_, err := ExecInstr(env, in)
				if !ok {
					if err == nil {
						t.Fatalf("cast %v→%v: scalar cast exists without a kernel", from, to)
					}
					continue
				}
				if err != nil {
					t.Fatalf("cast %v→%v: %v", from, to, err)
				}
				dst := vector.NewLen(to, 1)
				kernel(dst, oneElem(a), nil, 0, 1)
				if got, want := env.ScalarOf(2), dst.Get(0); !sameValue(got, want) {
					t.Fatalf("cast %v→%v(%v): scalar %v, kernel %v", from, to, a, got, want)
				}
			}
		}
	}
}
