package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/advm"
	"repro/internal/compress"
	"repro/internal/dsl"
	"repro/internal/morsel"
	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// lambdaSpec is one plan lambda with the columns it reads.
type lambdaSpec struct {
	lambda string
	cols   []string
	kinds  []advm.Kind
	out    advm.Kind
}

// program renders the lambda the way the engine lowers a filter or compute
// into an expression VM: one read per column, a map, one write.
func (l lambdaSpec) program() (string, map[string]vector.Kind) {
	var sb strings.Builder
	kinds := map[string]vector.Kind{"out": l.out}
	for i, col := range l.cols {
		fmt.Fprintf(&sb, "let c%d = read 0 %s\n", i, col)
		kinds[col] = l.kinds[i]
	}
	sb.WriteString("let r = map " + l.lambda)
	for i := range l.cols {
		fmt.Fprintf(&sb, " c%d", i)
	}
	sb.WriteString("\nwrite out 0 r\n")
	return sb.String(), kinds
}

// programSpec is a DSL program with its externals.
type programSpec struct {
	src   string
	kinds map[string]advm.Kind
}

// lowerReps is how often each lambda or program is parsed and normalized;
// the per-item median is kept. At most lowerItems items are timed.
const (
	lowerReps  = 25
	lowerItems = 64
)

// lowerLayers times dsl.Parse and nir.Normalize on the workload's own
// lambdas and programs: dsl.parse_us and nir.normalize_us are the mean over
// items of each item's median.
func lowerLayers(vals map[string]float64, lambdas []lambdaSpec, programs []programSpec, tr *tracer) error {
	items := append([]programSpec(nil), programs...)
	for _, l := range lambdas {
		src, kinds := l.program()
		items = append(items, programSpec{src, kinds})
	}
	if len(items) > lowerItems {
		items = items[:lowerItems]
	}
	var parse, norm []float64
	for _, it := range items {
		var p, n []float64
		for r := 0; r < lowerReps; r++ {
			sp := tr.begin("dsl.Parse", -1, 0)
			start := time.Now()
			prog, err := dsl.Parse(it.src)
			p = append(p, float64(time.Since(start))/1e3)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("parse %q: %w", it.src, err)
			}
			sp = tr.begin("nir.Normalize", -1, 0)
			start = time.Now()
			_, err = nir.Normalize(prog, it.kinds)
			n = append(n, float64(time.Since(start))/1e3)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("normalize %q: %w", it.src, err)
			}
		}
		parse = append(parse, median(p))
		norm = append(norm, median(n))
	}
	vals["dsl.parse_us"] = mean(parse)
	vals["nir.normalize_us"] = mean(norm)
	return nil
}

// microTrials is how often each layer microbenchmark repeats; the median
// trial is kept.
const microTrials = 5

// timeTrials runs fn microTrials times and returns the median duration.
func timeTrials(tr *tracer, name string, fn func()) time.Duration {
	ds := make([]float64, microTrials)
	for i := range ds {
		sp := tr.begin(name, -1, 0)
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
		tr.end(sp)
	}
	return time.Duration(median(ds))
}

// microLayers measures the workload-independent layer kernels: vectorized
// primitives (ns/elem over chunk-sized vectors), block decoders per
// compression scheme, and morsel dispatch on empty morsels.
func microLayers(vals map[string]float64, workers int, tr *tracer) {
	const n = vector.DefaultChunkLen
	const reps = 2000
	rng := rand.New(rand.NewSource(1))
	ai := make([]int64, n)
	af, bf := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		ai[i] = rng.Int63n(1000)
		af[i] = rng.Float64()
		bf[i] = rng.Float64()
	}
	vi, vf, wf := vector.FromI64(ai), vector.FromF64(af), vector.FromF64(bf)
	dstF, dstI := vector.New(vector.F64, n, n), vector.New(vector.I64, n, n)
	perElem := func(d time.Duration) float64 { return float64(d) / float64(n*reps) }

	selI, _ := primitive.SelectCmp(vector.I64, nir.CLt)
	selF, _ := primitive.SelectCmp(vector.F64, nir.CLt)
	mulF, _ := primitive.MapBinVV(vector.F64, nir.AMul)
	addI, _ := primitive.MapBinVS(vector.I64, nir.AAdd)
	sumF, _ := primitive.Fold(vector.F64, nir.AAdd)
	var sink int
	vals["primitive.select_cmp_i64.ns_per_elem"] = perElem(timeTrials(tr, "primitive.select_cmp_i64", func() {
		for r := 0; r < reps; r++ {
			sink += len(selI(vi, vector.I64Value(500), nil, 0, n))
		}
	}))
	vals["primitive.select_cmp_f64.ns_per_elem"] = perElem(timeTrials(tr, "primitive.select_cmp_f64", func() {
		for r := 0; r < reps; r++ {
			sink += len(selF(vf, vector.F64Value(0.5), nil, 0, n))
		}
	}))
	vals["primitive.map_mul_f64.ns_per_elem"] = perElem(timeTrials(tr, "primitive.map_mul_f64", func() {
		for r := 0; r < reps; r++ {
			mulF(dstF, vf, wf, nil, 0, n)
		}
	}))
	vals["primitive.map_arith_i64.ns_per_elem"] = perElem(timeTrials(tr, "primitive.map_arith_i64", func() {
		for r := 0; r < reps; r++ {
			addI(dstI, vi, vector.I64Value(7), nil, 0, n)
		}
	}))
	vals["primitive.fold_sum_f64.ns_per_elem"] = perElem(timeTrials(tr, "primitive.fold_sum_f64", func() {
		for r := 0; r < reps; r++ {
			if sumF(vector.F64Value(0), vf, nil, 0, n).F < 0 {
				sink++
			}
		}
	}))

	// Block decoders, one block per scheme over data shaped for it.
	const blockLen = compress.DefaultBlockLen
	const decodeReps = 500
	shapes := []struct {
		name   string
		scheme compress.Scheme
		gen    func(i int) int64
	}{
		{"raw", compress.None, func(int) int64 { return rng.Int63() }},
		{"dict", compress.Dict, func(int) int64 { return 1_000_000 + 37*rng.Int63n(16) }},
		{"rle", compress.RLE, func(i int) int64 { return int64(i / 64) }},
		{"for", compress.FOR, func(int) int64 { return 5_000_000 + rng.Int63n(4096) }},
	}
	dst := make([]int64, blockLen)
	for _, s := range shapes {
		data := make([]int64, blockLen)
		for i := range data {
			data[i] = s.gen(i)
		}
		b, err := compress.Compress(data, s.scheme)
		if err != nil {
			continue // reads 0: the scheme rejected its data
		}
		d := timeTrials(tr, "compress."+s.name+".decode", func() {
			for r := 0; r < decodeReps; r++ {
				sink += b.Decompress(dst)
			}
		})
		vals["compress."+s.name+".decode_ns_per_elem"] = float64(d) / float64(blockLen*decodeReps)
	}

	// Morsel dispatch: the public work-stealing dispatcher over empty
	// morsels, so only scheduling is timed.
	const morsels = 20000
	const morselLen = 16
	d := timeTrials(tr, "morsel.Run.empty", func() {
		morsel.Run(morsels*morselLen, morsel.Options{Workers: workers, MorselLen: morselLen}, func(worker, lo, hi int) {})
	})
	vals["morsel.dispatch_ns_per_morsel"] = float64(d) / morsels
	if sink == -1 {
		fmt.Println(sink)
	}
}
