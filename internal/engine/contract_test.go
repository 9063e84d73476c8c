package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/jit"
	"repro/internal/vector"
)

// poisonLeaf enforces the chunk-lifetime contract (see Operator.Next) the
// hard way: it copies each chunk of its child into buffers it recycles, and
// on every Next — the final, nil-returning one included — first overwrites
// the buffers of the chunk it handed out last with poison values. A
// consumer that keeps a chunk past its producer's next Next without copying
// it then reads poison. With fresh set it is the reference instead: a leaf
// that allocates new buffers for every chunk and never overwrites them.
//
// Either way every chunk carries a selection (each third row dropped), so
// consumers are exercised through selection vectors too.
type poisonLeaf struct {
	child Operator
	fresh bool

	cols  []*vector.Vector
	sel   vector.Sel
	chunk vector.Chunk
}

func (p *poisonLeaf) Schema() []ColInfo              { return p.child.Schema() }
func (p *poisonLeaf) Open(ctx context.Context) error { return p.child.Open(ctx) }
func (p *poisonLeaf) Close() error                   { return p.child.Close() }

func (p *poisonLeaf) Next(ctx context.Context) (*vector.Chunk, error) {
	out := &p.chunk
	if p.fresh {
		out, p.cols, p.sel = vector.NewChunk(), nil, nil
	} else {
		p.poison()
	}
	c, err := p.child.Next(ctx)
	if err != nil || c == nil {
		return nil, err
	}
	if c.Sel() != nil {
		return nil, fmt.Errorf("poisonLeaf: child chunk already carries a selection")
	}
	out.Reset()
	for i := 0; i < c.Width(); i++ {
		if i == len(p.cols) {
			p.cols = append(p.cols, vector.New(c.Col(i).Kind(), 0, c.Len()))
		}
		out.Add(c.Name(i), vector.CondenseInto(p.cols[i], c.Col(i), nil))
	}
	p.sel = p.sel[:0]
	for r := 0; r < c.Len(); r++ {
		if r%3 != 1 {
			p.sel = append(p.sel, int32(r))
		}
	}
	out.SetSel(p.sel)
	return out, nil
}

// poison overwrites every buffer of the last handed-out chunk.
func (p *poisonLeaf) poison() {
	for _, v := range p.cols {
		switch v.Kind() {
		case vector.I64:
			for i := range v.I64() {
				v.I64()[i] = math.MinInt64 + 7
			}
		case vector.F64:
			for i := range v.F64() {
				v.F64()[i] = math.Inf(-1)
			}
		case vector.Str:
			for i := range v.Str() {
				v.Str()[i] = "poison"
			}
		default:
			panic(fmt.Sprintf("poisonLeaf: kind %v", v.Kind()))
		}
	}
	for i := range p.sel {
		p.sel[i] = 0
	}
}

// viewsOn stacks a filter on leaf. Its chunks are views of the leaf's
// buffers under a narrower selection, so whatever a consumer keeps of them
// is exactly what the leaf poisons.
func viewsOn(leaf Operator) Operator {
	return NewFilter(leaf, `(\k -> k < 700)`, "k").SetJIT(true, jit.Options{CompileLatency: jit.NoCompileLatency})
}

// TestChunkLifetimeContract: every consumer that keeps rows past its
// producer's next Next — the exchange's per-morsel buffers, the parallel
// join build, the top-k materializations, Collect under HashJoin — must
// copy them, and the ones that do not keep rows (aggregations) must finish
// with a chunk before pulling the next. Under a poisoning leaf each one
// must produce exactly the rows it produces under a freshly allocating
// leaf.
func TestChunkLifetimeContract(t *testing.T) {
	st := genTable(t, 20_000, 11)
	dim := genTable(t, 3_000, 12)
	ctx := context.Background()
	forcedGPU := gpu.New(gpu.DefaultConfig())
	spec := KernelSpec{Name: "contract", Inputs: []string{"t.k", "t.v", "t.f"}, RowBytes: 24, OutRowBytes: 24, OpsPerElem: 5}

	// Each case builds its consumer over leaves made by leaf; parallel
	// consumers wrap their workers' windowed scans, serial ones a Scan.
	cases := []struct {
		name string
		run  func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value
	}{
		{"exchange", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			ex, err := NewExchange(st, nil, 3, func(_ int, l Operator) (Operator, error) {
				return viewsOn(leaf(l)), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, ex.SetMorselLen(2048).SetChunkLen(512))
		}},
		{"device-exec-forced-gpu", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			ex, err := NewExchange(st, nil, 3, func(_ int, l Operator) (Operator, error) {
				return NewDeviceExec(viewsOn(leaf(l)), nil, forcedGPU, spec, NewPlacementRecorder()), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, ex.SetMorselLen(2048).SetChunkLen(512))
		}},
		{"parallel-agg", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			pa, err := NewParallelAgg(st, nil, 3, func(_ int, l Operator) (Operator, error) {
				return NewDeviceExec(viewsOn(leaf(l)), nil, forcedGPU, spec, nil), nil
			}, []string{"v"}, []Aggregate{
				{Func: AggSum, Col: "f", As: "sg"}, {Func: AggFirst, Col: "k", As: "fk"}, {Func: AggCount, As: "n"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, pa.SetMorselLen(2048).SetChunkLen(512))
		}},
		{"parallel-topk", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			tk, err := NewParallelTopK(st, nil, 3, func(_ int, l Operator) (Operator, error) {
				return viewsOn(leaf(l)), nil
			}, 50, OrderSpec{Col: "f", Desc: true}, OrderSpec{Col: "v"})
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, tk.SetMorselLen(2048).SetChunkLen(512))
		}},
		{"parallel-join-build", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			tbl, err := BuildJoinTableParallel(ctx, dim, nil, 3, 256, 1024, "k",
				func(_ int, l Operator) (Operator, error) { return leaf(l), nil })
			if err != nil {
				t.Fatal(err)
			}
			sc, err := NewScan(tbl.Rows())
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, sc)
		}},
		{"topk", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			sc, err := NewScan(st)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := NewTopK(viewsOn(leaf(sc.SetChunkLen(512))), 50, OrderSpec{Col: "f", Desc: true}, OrderSpec{Col: "v"})
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, tk)
		}},
		{"hash-join-collect", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			probe, err := NewScan(st)
			if err != nil {
				t.Fatal(err)
			}
			build, err := NewScan(dim)
			if err != nil {
				t.Fatal(err)
			}
			hj := NewHashJoin(leaf(probe.SetChunkLen(512)), leaf(build.SetChunkLen(256)), "k", "k", "v", "f")
			return materialize(t, hj)
		}},
		{"hash-agg", func(t *testing.T, leaf func(Operator) Operator) [][]vector.Value {
			sc, err := NewScan(st)
			if err != nil {
				t.Fatal(err)
			}
			return materialize(t, NewHashAgg(viewsOn(leaf(sc.SetChunkLen(512))), []string{"v"}, []Aggregate{
				{Func: AggSum, Col: "f", As: "sg"}, {Func: AggFirst, Col: "k", As: "fk"},
			}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(t, func(l Operator) Operator { return &poisonLeaf{child: l, fresh: true} })
			if len(want) == 0 {
				t.Fatal("reference produced no rows")
			}
			got := tc.run(t, func(l Operator) Operator { return &poisonLeaf{child: l} })
			mustEqualRows(t, got, want, tc.name)
		})
	}
}
