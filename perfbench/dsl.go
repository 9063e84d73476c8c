package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/advm"
)

// figure2Src is the paper's Figure-2 program (map, filter, condense, two
// writes) over an input of any length, with a long arithmetic map on the
// condensed survivors. That map makes the compiled trace's cost follow the
// filter's selectivity, so a trace compiled at low selectivity loses to the
// interpreter once selectivity rises and the VM reverts it.
const figure2Src = `
mut i
mut k
i := 0
k := 0
loop {
  let input = read i some_data in
  if len(input) == 0 then break
  let a = map (\x -> 2*x) input in
  let t = filter (\x -> x > 0) a in
  let b = condense t
  let c = map (\y -> ((y * 3 + 7) * (y - 1) + y / 3) * (y + 5) - y / 7) b
  write v i a
  write w k c
  i := i + len(a)
  k := k + len(b)
}
`

// e2Src is the E2 long-arithmetic loop.
const e2Src = `
mut i
i := 0
loop {
  let xs = read i d
  if len(xs) == 0 then break
  write o i (map (\x -> (x * 3 + 7) * (x - 1) + x / 3) xs)
  i := i + len(xs)
}
`

var (
	figure2Kinds = map[string]advm.Kind{"some_data": advm.I64, "v": advm.I64, "w": advm.I64}
	e2Kinds      = map[string]advm.Kind{"d": advm.I64, "o": advm.I64}
)

// Plain-Go references of the two programs.
func figure2Ref(in []int64) (v, w []int64) {
	v = make([]int64, len(in))
	for i, x := range in {
		y := 2 * x
		v[i] = y
		if y > 0 {
			w = append(w, ((y*3+7)*(y-1)+y/3)*(y+5)-y/7)
		}
	}
	return v, w
}

func e2Ref(in []int64) []int64 {
	o := make([]int64, len(in))
	for i, x := range in {
		o[i] = (x*3+7)*(x-1) + x/3
	}
	return o
}

// dslPrograms is the dsl-programs workload. Each cycle builds a fresh
// engine, prepares the Figure-2 program (a cache miss: a new VM that must
// learn), runs it at low selectivity (the VM profiles, compiles and injects
// traces), then at high selectivity (the traces lose and are reverted),
// interleaved with E2 runs prepared on one long-lived engine (cache hits, a
// VM that stays compiled).
type dslPrograms struct {
	cfg          *config
	lo, hi, e2in *advm.Vector
	v, w, o      *advm.Vector
	e2Eng        *advm.Engine
	refs         map[string][][]int64
	jit          bool
}

// The cycle: four low-selectivity Figure-2 runs, then E2 and
// high-selectivity Figure-2 runs alternating. Shares 4:8:8 keep the overall
// median inside the E2 class and p90 inside the high-selectivity class; they
// are assumptions, not taken from a traffic record (README.md).
var dslCycle = func() []string {
	c := []string{"fig2-lo", "fig2-lo", "fig2-lo", "fig2-lo"}
	for i := 0; i < 8; i++ {
		c = append(c, "e2", "fig2-hi")
	}
	return c
}()

// Selectivities of the Figure-2 filter in the two phases.
const (
	dslLowSel  = 0.02
	dslHighSel = 0.98
)

func setupDSLPrograms(ctx context.Context, cfg *config) (instance, error) {
	return newDSLPrograms(ctx, cfg, true)
}

func newDSLPrograms(ctx context.Context, cfg *config, jit bool) (*dslPrograms, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	gen := func(sel float64) []int64 {
		d := make([]int64, cfg.dslRows)
		for i := range d {
			if rng.Float64() < sel {
				d[i] = 1 + rng.Int63n(1000)
			} else {
				d[i] = -rng.Int63n(1000)
			}
		}
		return d
	}
	w := &dslPrograms{cfg: cfg, jit: jit,
		lo: advm.FromI64(gen(dslLowSel)), hi: advm.FromI64(gen(dslHighSel)), e2in: advm.FromI64(gen(0.5)),
		v: advm.NewVector(advm.I64, 0, cfg.dslRows), w: advm.NewVector(advm.I64, 0, cfg.dslRows),
		o: advm.NewVector(advm.I64, 0, cfg.dslRows)}
	var err error
	if w.e2Eng, err = w.newEngine(); err != nil {
		return nil, err
	}
	// Warm-up: one whole cycle, unchecked.
	if _, err := w.cycle(ctx, nil, nil, false); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *dslPrograms) newEngine() (*advm.Engine, error) {
	return advm.NewEngine(advm.WithParallelism(w.cfg.nproc), advm.WithJIT(w.jit))
}

func (w *dslPrograms) references() {
	if w.refs != nil {
		return
	}
	lv, lw := figure2Ref(w.lo.I64())
	hv, hw := figure2Ref(w.hi.I64())
	w.refs = map[string][][]int64{"fig2-lo": {lv, lw}, "fig2-hi": {hv, hw}, "e2": {e2Ref(w.e2in.I64())}}
}

// cycleStats is what one cycle reports to the traced run.
type cycleStats struct {
	runs                     int
	injected, reverted       int
	guardFailures            int64
	prepares, prepareHits    int
	missUs                   []float64
	fig2Injected, fig2Revert int
}

// cycle runs one cycle of the mix. ops is nil during warm-up.
func (w *dslPrograms) cycle(ctx context.Context, ops *opLog, tr *tracer, check bool) (*cycleStats, error) {
	cs := &cycleStats{}
	eng, err := w.newEngine()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	prepare := func(e *advm.Engine, src string, kinds map[string]advm.Kind) (*advm.Prepared, error) {
		hits := e.Stats().CacheHits
		sp := tr.begin("advm.Engine.Prepare", -1, 0)
		start := time.Now()
		p, err := e.Prepare(src, kinds)
		d := time.Since(start)
		tr.end(sp)
		cs.prepares++
		if e.Stats().CacheHits > hits {
			cs.prepareHits++
		} else {
			cs.missUs = append(cs.missUs, float64(d)/1e3)
		}
		return p, err
	}
	fig2, err := prepare(eng, figure2Src, figure2Kinds)
	if err != nil {
		return nil, err
	}
	e2, err := prepare(w.e2Eng, e2Src, e2Kinds)
	if err != nil {
		return nil, err
	}
	e2Before := e2.Stats()
	for _, class := range dslCycle {
		p, bind := fig2, map[string]*advm.Vector{"v": w.v, "w": w.w}
		switch class {
		case "fig2-lo":
			bind["some_data"] = w.lo
		case "fig2-hi":
			bind["some_data"] = w.hi
		default:
			p, bind = e2, map[string]*advm.Vector{"d": w.e2in, "o": w.o}
		}
		for _, out := range []*advm.Vector{w.v, w.w, w.o} {
			out.SetLen(0)
		}
		if ops != nil {
			ops.attempted++
		}
		sp := tr.begin("advm.Prepared.Run", -1, 0)
		start := time.Now()
		err := p.Run(ctx, bind)
		d := time.Since(start)
		tr.end(sp)
		cs.runs++
		if ops == nil {
			if err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			ops.fail("%s: %v", class, err)
			continue
		}
		if check {
			if err := w.verify(class); err != nil {
				ops.fail("%s: wrong result: %v", class, err)
				continue
			}
		}
		ops.add(class, d)
	}
	fs, es := fig2.Stats(), e2.Stats()
	cs.fig2Injected, cs.fig2Revert = fs.InjectedTraces, fs.RevertedTraces
	cs.injected = fs.InjectedTraces + es.InjectedTraces - e2Before.InjectedTraces
	cs.reverted = fs.RevertedTraces + es.RevertedTraces - e2Before.RevertedTraces
	cs.guardFailures = fs.GuardFailures + es.GuardFailures - e2Before.GuardFailures
	return cs, nil
}

func (w *dslPrograms) verify(class string) error {
	want := w.refs[class]
	got := [][]int64{w.v.I64(), w.w.I64()}
	if class == "e2" {
		got = [][]int64{w.o.I64()}
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Errorf("output %d differs from the plain-Go loop (len %d vs %d)", i, len(got[i]), len(want[i]))
		}
	}
	return nil
}

// loop runs whole cycles until d has passed and checks the Figure-1 guard:
// traces were both injected and reverted.
func (w *dslPrograms) loop(ctx context.Context, d time.Duration, tr *tracer) (*opLog, []*cycleStats, error) {
	w.references()
	ops := &opLog{}
	var all []*cycleStats
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		cs, err := w.cycle(ctx, ops, tr, true)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, cs)
	}
	if w.jit {
		var inj, rev int
		for _, cs := range all {
			inj += cs.fig2Injected
			rev += cs.fig2Revert
		}
		if inj == 0 || rev == 0 {
			return nil, nil, fmt.Errorf("validity guard: Figure-2 traces injected %d, reverted %d; want both > 0", inj, rev)
		}
	}
	return ops, all, nil
}

func (w *dslPrograms) measure(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	ops, _, err := w.loop(ctx, d, nil)
	if err != nil {
		return nil, nil, err
	}
	return closedLoopMetrics(ops), ops, nil
}

// traced splits d in three: untraced adaptive runs, traced adaptive runs,
// and untraced runs of the same cycles with the JIT off (the paper's
// interpreted baseline).
func (w *dslPrograms) traced(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	vals := map[string]float64{}
	rt0 := readRuntime()
	plain, _, err := w.loop(ctx, d/3, nil)
	if err != nil {
		return nil, nil, err
	}
	runtimePerOp(vals, rt0, readRuntime(), len(plain.lat))

	tr := newTracer()
	traced, cycles, err := w.loop(ctx, d/3, tr)
	if err != nil {
		return nil, nil, err
	}
	var runs, prepares, hits, inj, rev int
	var gf int64
	var miss []float64
	for _, cs := range cycles {
		runs += cs.runs
		prepares += cs.prepares
		hits += cs.prepareHits
		inj += cs.injected
		rev += cs.reverted
		gf += cs.guardFailures
		miss = append(miss, cs.missUs...)
	}
	per100 := func(x float64) float64 { return 100 * ratio(x, float64(runs)) }
	vals["vm.run_us"] = median(tr.durationsUs("advm.Prepared.Run"))
	vals["vm.injected_traces"] = per100(float64(inj))
	vals["vm.reverted_traces"] = per100(float64(rev))
	vals["vm.guard_failures"] = per100(float64(gf))
	vals["advm.prepare_hit_ratio"] = ratio(float64(hits), float64(prepares))
	vals["advm.prepare_miss_us"] = median(miss)
	vals["qtrace.overhead_ratio"] = overheadRatio(traced, plain)

	interp, err := newDSLPrograms(ctx, w.cfg, false)
	if err != nil {
		return nil, nil, err
	}
	defer interp.close()
	interpOps, _, err := interp.loop(ctx, d/3, nil)
	if err != nil {
		return nil, nil, err
	}
	vals["vm.interp_vs_adaptive_ratio"] = overheadRatio(interpOps, plain)

	progs := []programSpec{{figure2Src, figure2Kinds}, {e2Src, e2Kinds}}
	if err := lowerLayers(vals, nil, progs, tr); err != nil {
		return nil, nil, err
	}
	microLayers(vals, w.cfg.nproc, tr)
	if err := tr.write(spanFile(w.cfg)); err != nil {
		return nil, nil, err
	}
	plain.merge(traced)
	plain.merge(interpOps)
	return vals, plain, nil
}

func (w *dslPrograms) peakRSSMB() float64 { return rssPeakMB("self") }

func (w *dslPrograms) close() {
	if w.e2Eng != nil {
		w.e2Eng.Close()
	}
	*w = dslPrograms{}
}
