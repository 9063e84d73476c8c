package primitive

import (
	"testing"

	"repro/internal/nir"
	"repro/internal/vector"
)

// BenchmarkKernels times the kernels the DSL programs and ad-hoc expression
// VMs spend their time in, on one 1,024-element chunk, and reports ns/elem.
// The ".sel" variants run under a selection of every other element.
//
//	go test ./internal/primitive -run '^$' -bench Kernels -count 10
func BenchmarkKernels(b *testing.B) {
	const n = vector.DefaultChunkLen
	i64a, i64b := vector.NewLen(vector.I64, n), vector.NewLen(vector.I64, n)
	f64a := vector.NewLen(vector.F64, n)
	for i := 0; i < n; i++ {
		i64a.I64()[i] = int64(i*7919%100003) - 50000
		i64b.I64()[i] = int64(i%97) + 1
		f64a.F64()[i] = float64(i*7919%100003) / 100
	}
	var half vector.Sel
	for i := 0; i < n; i += 2 {
		half = append(half, int32(i))
	}
	dstI := vector.NewLen(vector.I64, n)
	// run times f over b.Loop and reports ns per element of an elems-long
	// window.
	run := func(b *testing.B, elems int, f func()) {
		iters := 0
		for b.Loop() {
			f()
			iters++
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters*elems), "ns/elem")
	}

	for _, op := range []nir.ArithOp{nir.ADiv, nir.AMul, nir.AAdd, nir.ASub} {
		vs, _ := MapBinVS(vector.I64, op)
		vv, _ := MapBinVV(vector.I64, op)
		b.Run(op.String()+".i64.vs", func(b *testing.B) {
			run(b, n, func() { vs(dstI, i64a, vector.I64Value(7), nil, 0, n) })
		})
		b.Run(op.String()+".i64.vv", func(b *testing.B) {
			run(b, n, func() { vv(dstI, i64a, i64b, nil, 0, n) })
		})
	}

	selI, _ := SelectCmp(vector.I64, nir.CLt)
	selF, _ := SelectCmp(vector.F64, nir.CLt)
	for _, c := range []struct {
		name string
		sel  vector.Sel
	}{{"", nil}, {".sel", half}} {
		b.Run("select.lt.i64"+c.name, func(b *testing.B) {
			run(b, Span(i64a, c.sel), func() { selI(i64a, vector.I64Value(0), c.sel, 0, Span(i64a, c.sel)) })
		})
		b.Run("select.lt.f64"+c.name, func(b *testing.B) {
			run(b, Span(f64a, c.sel), func() { selF(f64a, vector.F64Value(500), c.sel, 0, Span(f64a, c.sel)) })
		})
	}

	sum, _ := Fold(vector.F64, nir.AAdd)
	b.Run("fold.add.f64", func(b *testing.B) {
		run(b, n, func() { sum(vector.F64Value(0), f64a, nil, 0, n) })
	})

	mul, _ := MapBinVS(vector.I64, nir.AMul)
	add, _ := MapBinVS(vector.I64, nir.AAdd)
	b.Run("pair.mul.add.i64", func(b *testing.B) {
		run(b, n, func() {
			mul(dstI, i64a, vector.I64Value(3), nil, 0, n)
			add(dstI, dstI, vector.I64Value(7), nil, 0, n)
		})
	})
}
