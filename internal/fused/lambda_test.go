package fused_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/fused"
	"repro/internal/vector"
)

// lambdaStage builds stage shape%8 over the (k i64, x f64) test table: a
// filter on k or x, or a compute over one or two columns returning i64 or
// f64. It returns the fused stage and the equivalent interpreted operator.
func lambdaStage(lambda string, shape uint8) (fused.Stage, func(engine.Operator) engine.Operator) {
	if col := []string{"k", "x"}[shape%2]; shape%8 < 2 {
		return fused.Stage{Kind: fused.StageFilter, Lambda: lambda, Col: col},
			func(op engine.Operator) engine.Operator { return engine.NewFilter(op, lambda, col) }
	}
	cols := [][]string{{"k"}, {"x"}, {"k", "x"}}[shape%3]
	kind := []vector.Kind{vector.I64, vector.F64}[(shape/4)%2]
	return fused.Stage{Kind: fused.StageCompute, Lambda: lambda, Out: "o", OutKind: kind, Cols: cols},
		func(op engine.Operator) engine.Operator { return engine.NewCompute(op, "o", lambda, kind, cols...) }
}

// sameBytes compares two result stores value by value, floats by their bits.
func sameBytes(got, want *vector.DSMStore) bool {
	if got.Rows() != want.Rows() || len(got.Schema().Names) != len(want.Schema().Names) {
		return false
	}
	for c := range got.Schema().Names {
		for r := 0; r < got.Rows(); r++ {
			g, w := got.Col(c).Get(r), want.Col(c).Get(r)
			if math.Float64bits(g.F) != math.Float64bits(w.F) {
				return false
			}
			g.F, w.F = 0, 0
			if g != w {
				return false
			}
		}
	}
	return true
}

// FuzzFusedLambda: whenever the interpreted operator opens a lambda, the
// fused compiler must accept it too, and the fused segment must produce the
// interpreted bytes.
func FuzzFusedLambda(f *testing.F) {
	for _, seed := range []struct {
		lambda string
		shape  uint8
	}{
		// TPC-H Q1, Q3 and Q6.
		{`(\d -> d <= 90)`, 0},
		{`(\s -> s == 3)`, 0},
		{`(\d -> (d >= 10) && (d < 50))`, 0},
		{`(\x -> (x >= 0.05) && (x <= 0.07))`, 1},
		{`(\p d -> p * (1.0 - d))`, 6},
		{`(\dp t -> dp * (1.0 + t))`, 6},
		{`(\p d -> p * d)`, 6},
		// Random plan shapes.
		{`(\v -> (v % 5) == 2)`, 0},
		{`(\v -> v > -12.5)`, 1},
		{`(\v -> (v < 10.5) || !(v > 60))`, 0},
		{`(\v -> v * 3 + 7)`, 2},
		{`(\v -> (v % 4) * 3)`, 2},
		{`(\v -> v * 0.75 + 2.5)`, 4},
		{`(\v -> v * v)`, 3},
		{`(\u v -> u + v * 2)`, 6},
		{`(\u v -> -(u / 3) - (2 - v) * u)`, 7},
	} {
		f.Add(seed.lambda, seed.shape)
	}
	st := testTable(700)
	scan := []engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}
	f.Fuzz(func(t *testing.T, lambda string, shape uint8) {
		stage, chain := lambdaStage(lambda, shape)
		leaf, err := engine.NewScan(st, "k", "x")
		if err != nil {
			t.Fatal(err)
		}
		leaf.SetChunkLen(256)
		op := chain(leaf)
		if err := op.Open(context.Background()); err != nil {
			return // the interpreted operator rejects the lambda
		}
		op.Close()
		want := runInterp(t, st, []string{"k", "x"}, chain)
		prog, ok := fused.Compile(scan, []fused.Stage{stage})
		if !ok {
			t.Fatalf("%s (shape %d): the interpreter accepts it, Compile declines", lambda, shape%8)
		}
		got, _ := runFused(t, prog, st, []string{"k", "x"}, nil, nil, nil)
		if !sameBytes(got, want) {
			t.Fatalf("%s (shape %d): fused output differs from interpreted", lambda, shape%8)
		}
	})
}

// repeatLeaf serves the same chunk forever.
type repeatLeaf struct {
	schema []engine.ColInfo
	ch     *vector.Chunk
}

func (l *repeatLeaf) Schema() []engine.ColInfo                    { return l.schema }
func (l *repeatLeaf) Open(context.Context) error                  { return nil }
func (l *repeatLeaf) Close() error                                { return nil }
func (l *repeatLeaf) Next(context.Context) (*vector.Chunk, error) { return l.ch, nil }

// TestExecAllocationFree: after warm-up, a fused loop with a mask-path
// filter, a cast and multi-instruction computes allocates nothing per chunk.
func TestExecAllocationFree(t *testing.T) {
	scan := []engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}
	prog, ok := fused.Compile(scan, []fused.Stage{
		{Kind: fused.StageFilter, Lambda: `(\k -> (k < 20) || (k > 70))`, Col: "k"},
		{Kind: fused.StageFilter, Lambda: `(\x -> x >= 1.5)`, Col: "x"},
		{Kind: fused.StageCompute, Lambda: `(\k -> k * 3 + 7)`, Out: "y", OutKind: vector.F64, Cols: []string{"k"}},
		{Kind: fused.StageCompute, Lambda: `(\x y -> x * (1.0 - y))`, Out: "z", OutKind: vector.F64, Cols: []string{"x", "y"}},
	})
	if !ok {
		t.Fatal("segment must compile")
	}
	ch := vector.NewChunk()
	ks, xs := make([]int64, 1024), make([]float64, 1024)
	for i := range ks {
		ks[i], xs[i] = int64(i%97), float64(i)/8
	}
	ch.Add("k", vector.FromI64(ks))
	ch.Add("x", vector.FromF64(xs))
	ex := fused.NewExec(prog, &repeatLeaf{schema: scan, ch: ch}, nil, nil, nil)
	ctx := context.Background()
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	next := func() {
		if out, err := ex.Next(ctx); err != nil || out == nil || out.SelectedLen() == 0 {
			t.Fatalf("Next = %v, %v", out, err)
		}
	}
	for i := 0; i < 8; i++ {
		next()
	}
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Fatalf("fused chunk allocates %v times, want 0", n)
	}
	if ex.Deopted() {
		t.Fatal("steady input must not deopt")
	}
}
