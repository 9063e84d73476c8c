package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"repro/advm"
	"repro/internal/colstore"
	"repro/internal/tpch"
	"repro/internal/vector"
)

// adhocColstore is the adhoc-colstore workload: one closed-loop client
// sending Q6-shaped and Q1-shaped queries with seeded random constants over
// a colstore-backed lineitem. Every query is a new plan fingerprint, so
// plans stay cold: lambdas are parsed and normalized and expression VMs
// built per query, and scans prune and decode segments.
type adhocColstore struct {
	cfg    *config
	li     *vector.DSMStore // in-RAM copy: the reference queries read it
	dir    string
	loadS  float64
	writeS float64
	eng    *advm.Engine
	sess   *advm.Session
	table  *advm.StoredTable
	rng    *rand.Rand
	seen   map[string]bool
	// firstShip is the earliest ship date in lineitem.
	firstShip int64
}

// The mix per cycle: two Q6-shaped queries, one Q1-shaped. Unequal shares
// keep the overall median inside one class's distribution; they are an
// assumption, not taken from a traffic record (README.md).
var adhocCycle = []string{"q6", "q1", "q6"}

func setupAdhocColstore(ctx context.Context, cfg *config) (instance, error) {
	w := &adhocColstore{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), seen: map[string]bool{}}
	start := time.Now()
	w.li = tpch.GenLineitem(cfg.sf, cfg.seed)
	w.loadS = time.Since(start).Seconds()
	w.firstShip = slices.Min(w.li.Col(tpch.ColShipdate).I64())
	dir, err := os.MkdirTemp(cfg.workDir, "colstore-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	start = time.Now()
	opts := colstore.WriteOptions{SegmentRows: tpch.ColstoreSegmentRows(w.li.Rows())}
	if err := colstore.Write(w.dir, w.li, opts); err != nil {
		w.close()
		return nil, fmt.Errorf("colstore write: %w", err)
	}
	w.writeS = time.Since(start).Seconds()
	if w.eng, err = advm.NewEngine(advm.WithParallelism(cfg.nproc)); err != nil {
		w.close()
		return nil, err
	}
	if w.table, err = w.eng.OpenTable(w.dir); err != nil {
		w.close()
		return nil, err
	}
	if w.sess, err = w.eng.Session(); err != nil {
		w.close()
		return nil, err
	}
	// Warm-up: one query of each shape, so the first timed query does not
	// pay first-touch costs of the mapped files. Both are new fingerprints.
	for _, c := range adhocCycle[:2] {
		q, err := w.next(c)
		if err != nil {
			w.close()
			return nil, err
		}
		if _, err := runQuery(ctx, w.sess, q.plan, advm.TraceOff, nil, 0); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	return w, nil
}

// adhocQuery is one generated query with its reference check.
type adhocQuery struct {
	class   string
	plan    *advm.Plan
	lambdas []lambdaSpec
	check   func(*queryResult) error
}

// maxRedraws bounds how often next redraws a constant set it has already
// sent before the run fails: the constant spaces hold far more sets than
// any run uses, so hitting it means they are exhausted.
const maxRedraws = 100

// next draws a query of the class with fresh random constants, redrawing
// the rare repeat so every query is a new fingerprint. A Q1-shaped query
// draws its cutoff and, below the first ship date, the lower end of its
// ship-date window, so its rows and reference are those of Q1 at that
// cutoff while its fingerprint is new.
func (w *adhocColstore) next(class string) (adhocQuery, error) {
	for try := 0; try < maxRedraws; try++ {
		var q adhocQuery
		var key string
		switch class {
		case "q6":
			lo := w.rng.Int63n(tpch.ShipdateMax - 365)
			disc := float64(1+w.rng.Intn(7)) / 100
			p := tpch.Q6Params{ShipLo: lo, ShipHi: lo + 365, DiscLo: disc, DiscHi: disc + 0.02, QtyMax: 20 + w.rng.Int63n(11)}
			key = fmt.Sprintf("q6 %+v", p)
			q = adhocQuery{class: class, plan: tpch.PlanQ6(w.table, p), lambdas: q6Lambdas(p),
				check: func(r *queryResult) error {
					return checkQ6(r, tpch.Q6HyPer(w.li, p.ShipLo, p.ShipHi, p.DiscLo, p.DiscHi, p.QtyMax))
				}}
		default:
			cutoff := 1800 + w.rng.Int63n(700)
			filter := q1WindowFilter(w.firstShip-w.rng.Int63n(1<<40), cutoff)
			key = filter
			q = adhocQuery{class: class, plan: planQ1(w.table, filter), lambdas: q1Lambdas(filter),
				check: func(r *queryResult) error { return checkQ1(r, tpch.Q1HyPer(w.li, cutoff)) }}
		}
		if !w.seen[key] {
			w.seen[key] = true
			return q, nil
		}
	}
	return adhocQuery{}, fmt.Errorf("%d redraws of %s constants all repeated an earlier query", maxRedraws, class)
}

// loop runs whole cycles of the mix until d has passed; lambdas collects
// the lowered expressions of the queries sent.
func (w *adhocColstore) loop(ctx context.Context, d time.Duration, tr *tracer, layers *queryLayers, lambdas *[]lambdaSpec) (*opLog, error) {
	ops := &opLog{}
	level := advm.TraceOff
	if layers != nil {
		level = advm.TraceMorsels
	}
	deadline := time.Now().Add(d)
	for op := int64(0); time.Now().Before(deadline); {
		for _, c := range adhocCycle {
			op++
			ops.attempted++
			q, err := w.next(c)
			if err != nil {
				return nil, err
			}
			if lambdas != nil {
				*lambdas = append(*lambdas, q.lambdas...)
			}
			r, err := runQuery(ctx, w.sess, q.plan, level, tr, op)
			if err != nil {
				ops.fail("%s: %v", c, err)
				continue
			}
			if r.fused {
				return nil, fmt.Errorf("validity guard: ad-hoc %s ran fused (tier %q)", c, r.tier)
			}
			if err := q.check(r); err != nil {
				ops.fail("%s: wrong result: %v", c, err)
				continue
			}
			ops.add(c, r.total)
			if layers != nil {
				layers.add(c, r)
			}
		}
	}
	return ops, w.guards()
}

// repeatShare is the share of executions whose plan fingerprint the engine
// had already seen, measured from the engine's tier table.
func repeatShare(st advm.EngineStats) float64 {
	var execs, repeats int64
	for _, t := range st.Tiers {
		execs += t.Execs
		repeats += t.Execs - 1
	}
	return ratio(float64(repeats), float64(execs))
}

// maxAdhocRepeatShare bounds the measured repeat-fingerprint share.
const maxAdhocRepeatShare = 0.02

// guards checks the workload still measures what it claims: no fused
// query, pruning active, fingerprints new.
func (w *adhocColstore) guards() error {
	st := w.eng.Stats()
	ss := w.sess.Stats()
	switch {
	case st.FusedQueries != 0:
		return fmt.Errorf("validity guard: %d fused queries, want 0", st.FusedQueries)
	case ss.SegmentsSkipped == 0:
		return fmt.Errorf("validity guard: no colstore segment skipped")
	case repeatShare(st) > maxAdhocRepeatShare:
		return fmt.Errorf("validity guard: repeat-fingerprint share %.3f > %.2f", repeatShare(st), maxAdhocRepeatShare)
	}
	return nil
}

func (w *adhocColstore) measure(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	ops, err := w.loop(ctx, d, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("adhoc-colstore: repeat-fingerprint share %.4f\n", repeatShare(w.eng.Stats()))
	return closedLoopMetrics(ops), ops, nil
}

func (w *adhocColstore) traced(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	vals := map[string]float64{"tpch.load_s": w.loadS, "colstore.write_s": w.writeS}
	rt0 := readRuntime()
	plain, err := w.loop(ctx, d/2, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	runtimePerOp(vals, rt0, readRuntime(), len(plain.lat))
	classP50s(vals, plain, "q1", "q6")

	tr := newTracer()
	layers := newQueryLayers()
	layers.segRows = w.table.SegmentRows()
	var lambdas []lambdaSpec
	es0 := w.eng.Stats()
	traced, err := w.loop(ctx, d/2, tr, layers, &lambdas)
	if err != nil {
		return nil, nil, err
	}
	engineDelta(vals, es0, w.eng.Stats(), layers.queries)
	layers.fill(vals)
	vals["qtrace.overhead_ratio"] = overheadRatio(traced, plain)
	if err := lowerLayers(vals, lambdas, nil, tr); err != nil {
		return nil, nil, err
	}
	w.storageLayers(vals, tr)
	microLayers(vals, w.cfg.nproc, tr)
	if err := tr.write(spanFile(w.cfg)); err != nil {
		return nil, nil, err
	}
	plain.merge(traced)
	return vals, plain, nil
}

// storageLayers measures the stored table itself: bytes stored per byte of
// column data, and the decode throughput of full scans of every numeric
// column through the table's public Scan.
func (w *adhocColstore) storageLayers(vals map[string]float64, tr *tracer) {
	sch := w.li.Schema()
	rows := w.li.Rows()
	var raw, stored float64
	var numeric []int
	for c, name := range sch.Names {
		stored += float64(w.table.ColumnBytes(name))
		if sch.Kinds[c] == vector.Str {
			for _, s := range w.li.Col(c).Str() {
				raw += float64(len(s))
			}
			continue
		}
		raw += 8 * float64(rows)
		numeric = append(numeric, c)
	}
	vals["colstore.stored_bytes_ratio"] = ratio(stored, raw)

	const chunk = 16384
	dst := make([]*vector.Vector, len(numeric))
	for i, c := range numeric {
		dst[i] = vector.New(sch.Kinds[c], chunk, chunk)
	}
	d := timeTrials(tr, "colstore.Table.Scan.full", func() {
		for lo := 0; lo < rows; lo += chunk {
			w.table.Scan(lo, min(chunk, rows-lo), numeric, dst)
		}
	})
	vals["colstore.decode_mb_per_s"] = ratio(8*float64(rows*len(numeric))/1e6, d.Seconds())
}

func (w *adhocColstore) peakRSSMB() float64 { return rssPeakMB("self") }

func (w *adhocColstore) close() {
	if w.sess != nil {
		w.sess.Close()
	}
	if w.eng != nil {
		w.eng.Close() // also closes the opened table
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	*w = adhocColstore{}
}
