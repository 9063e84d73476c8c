package main

import (
	"context"
	"fmt"
	"time"

	"repro/advm"
	"repro/internal/tpch"
	"repro/internal/vector"
)

// tpchHot is the tpch-hot workload: one closed-loop client cycling
// Q1 → Q6 → Q3 with default parameters over in-RAM SF 0.1 tables, every
// plan warmed past the hot threshold so each timed query runs fused.
type tpchHot struct {
	cfg           *config
	li, ord, cust *vector.DSMStore
	loadS         float64
	eng           *advm.Engine
	sess          *advm.Session
	classes       []string
	plans         map[string]*advm.Plan
	check         map[string]func(*queryResult) error
}

// hotThreshold is the engine's default hot tier threshold; warmLimit bounds
// the warm-up executions per plan, since a plan that is not hot well past
// the threshold never will be.
const (
	hotThreshold = 8
	warmLimit    = 2 * hotThreshold
)

func setupTPCHHot(ctx context.Context, cfg *config) (instance, error) {
	w := &tpchHot{cfg: cfg, classes: []string{"q1", "q6", "q3"}}
	start := time.Now()
	w.li = tpch.GenLineitem(cfg.sf, cfg.seed)
	w.ord = tpch.GenOrders(cfg.sf, cfg.seed)
	w.cust = tpch.GenCustomer(cfg.sf, cfg.seed)
	w.loadS = time.Since(start).Seconds()
	var err error
	if w.eng, err = advm.NewEngine(advm.WithParallelism(cfg.nproc)); err != nil {
		return nil, err
	}
	if w.sess, err = w.eng.Session(); err != nil {
		w.close()
		return nil, err
	}
	w.plans = map[string]*advm.Plan{
		"q1": tpch.PlanQ1(w.li),
		"q6": tpch.PlanQ6(w.li, tpch.DefaultQ6Params()),
		"q3": tpch.PlanQ3(w.li, w.ord, w.cust, tpch.DefaultQ3Params()),
	}
	for _, c := range w.classes {
		hot := false
		for i := 0; i < warmLimit && !hot; i++ {
			r, err := runQuery(ctx, w.sess, w.plans[c], advm.TraceOff, nil, 0)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up %s: %w", c, err)
			}
			hot = r.tier == "hot" && r.fused
		}
		if !hot {
			w.close()
			return nil, fmt.Errorf("validity guard: %s is not hot and fused after %d runs", c, warmLimit)
		}
	}
	return w, nil
}

// references computes the expected results; it runs after set-up so the
// benchmark's own work is not charged to setup_s.
func (w *tpchHot) references() {
	if w.check != nil {
		return
	}
	q1 := tpch.Q1HyPer(w.li, tpch.Q1Cutoff)
	p6 := tpch.DefaultQ6Params()
	q6 := tpch.Q6HyPer(w.li, p6.ShipLo, p6.ShipHi, p6.DiscLo, p6.DiscHi, p6.QtyMax)
	q3 := tpch.Q3HyPer(w.li, w.ord, w.cust, tpch.DefaultQ3Params())
	w.check = map[string]func(*queryResult) error{
		"q1": func(r *queryResult) error { return checkQ1(r, q1) },
		"q6": func(r *queryResult) error { return checkQ6(r, q6) },
		"q3": func(r *queryResult) error { return checkQ3(r, q3) },
	}
}

// loop runs whole Q1→Q6→Q3 cycles until d has passed. With layers set the
// queries run traced at the morsel level.
func (w *tpchHot) loop(ctx context.Context, d time.Duration, tr *tracer, layers *queryLayers) (*opLog, error) {
	w.references()
	ops := &opLog{}
	level := advm.TraceOff
	if layers != nil {
		level = advm.TraceMorsels
	}
	deadline := time.Now().Add(d)
	for op := int64(0); time.Now().Before(deadline); {
		for _, c := range w.classes {
			op++
			ops.attempted++
			r, err := runQuery(ctx, w.sess, w.plans[c], level, tr, op)
			if err != nil {
				ops.fail("%s: %v", c, err)
				continue
			}
			if r.tier != "hot" || !r.fused {
				return nil, fmt.Errorf("validity guard: timed %s ran tier=%q fused=%v, want hot and fused", c, r.tier, r.fused)
			}
			if err := w.check[c](r); err != nil {
				ops.fail("%s: wrong result: %v", c, err)
				continue
			}
			ops.add(c, r.total)
			if layers != nil {
				layers.add(c, r)
			}
		}
	}
	return ops, nil
}

func (w *tpchHot) measure(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	ops, err := w.loop(ctx, d, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return closedLoopMetrics(ops), ops, nil
}

func (w *tpchHot) traced(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	vals := map[string]float64{"tpch.load_s": w.loadS}
	rt0 := readRuntime()
	plain, err := w.loop(ctx, d/2, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	runtimePerOp(vals, rt0, readRuntime(), len(plain.lat))
	classP50s(vals, plain, w.classes...)

	tr := newTracer()
	layers := newQueryLayers()
	es0 := w.eng.Stats()
	traced, err := w.loop(ctx, d/2, tr, layers)
	if err != nil {
		return nil, nil, err
	}
	engineDelta(vals, es0, w.eng.Stats(), layers.queries)
	layers.fill(vals)
	vals["qtrace.overhead_ratio"] = overheadRatio(traced, plain)
	var specs []lambdaSpec
	specs = append(specs, q1Lambdas(q1Filter(tpch.Q1Cutoff))...)
	specs = append(specs, q6Lambdas(tpch.DefaultQ6Params())...)
	specs = append(specs, q3Lambdas(tpch.DefaultQ3Params())...)
	if err := lowerLayers(vals, specs, nil, tr); err != nil {
		return nil, nil, err
	}
	microLayers(vals, w.cfg.nproc, tr)
	if err := tr.write(spanFile(w.cfg)); err != nil {
		return nil, nil, err
	}
	plain.merge(traced)
	return vals, plain, nil
}

func (w *tpchHot) peakRSSMB() float64 { return rssPeakMB("self") }

func (w *tpchHot) close() {
	if w.sess != nil {
		w.sess.Close()
	}
	if w.eng != nil {
		w.eng.Close()
	}
	*w = tpchHot{}
}
