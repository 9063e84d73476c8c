package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/advm"
	"repro/internal/qtrace"
	"repro/internal/tpch"
)

// queryResult is one executed query with what its cursor reports.
type queryResult struct {
	cols             []string
	rows             [][]advm.Value
	tier             string
	fused            bool
	scanned, skipped int64
	steals           int64
	trace            *qtrace.Trace
	// open is the Session.Query call; firstRow the first Rows.Next (where
	// pipeline breakers do their work); total the whole query, Close
	// included.
	open, firstRow, total time.Duration
}

// runQuery executes plan to completion and collects its rows. With a
// non-nil tracer it records a span around each call into advm.
func runQuery(ctx context.Context, sess *advm.Session, plan *advm.Plan, level advm.TraceLevel, tr *tracer, op int64) (*queryResult, error) {
	start := time.Now()
	root := tr.begin("query", -1, op)
	sp := tr.begin("advm.Session.Query", root, op)
	rows, err := sess.QueryTraced(ctx, plan, level)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	defer rows.Close()
	res := &queryResult{cols: rows.Columns(), open: time.Since(start)}
	sp = tr.begin("advm.Rows.Next.first", root, op)
	more := rows.Next()
	tr.end(sp)
	res.firstRow = time.Since(start) - res.open
	sp = tr.begin("advm.Rows.drain", root, op)
	for more {
		row := make([]advm.Value, len(res.cols))
		dests := make([]any, len(row))
		for i := range row {
			dests[i] = &row[i]
		}
		if err := rows.Scan(dests...); err != nil {
			tr.end(sp)
			tr.end(root)
			return nil, err
		}
		res.rows = append(res.rows, row)
		more = rows.Next()
	}
	err = rows.Err()
	rows.Close()
	tr.end(sp)
	res.total = time.Since(start)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res.tier, res.fused = rows.Tier(), rows.Fused()
	res.scanned, res.skipped = rows.ScanStats()
	res.steals = rows.Steals()
	res.trace = rows.Trace()
	return res, nil
}

// col returns the index of a result column.
func (r *queryResult) col(name string) int {
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Correctness: every result is checked against the hand-written
// tuple-at-a-time references of internal/tpch at the relative tolerance the
// TPC-H tests use.
const relTol = 1e-9

func (r *queryResult) q1() (tpch.Q1Result, error) {
	names := []string{"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price",
		"sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order"}
	idx := make([]int, len(names))
	for i, n := range names {
		if idx[i] = r.col(n); idx[i] < 0 {
			return nil, fmt.Errorf("q1 result lacks column %s", n)
		}
	}
	out := make(tpch.Q1Result, 0, len(r.rows))
	for _, row := range r.rows {
		out = append(out, tpch.Q1Group{
			Returnflag: row[idx[0]].S, Linestatus: row[idx[1]].S,
			SumQty: row[idx[2]].I, SumBasePrice: row[idx[3]].F, SumDiscPrice: row[idx[4]].F,
			SumCharge: row[idx[5]].F, AvgQty: row[idx[6]].F, AvgPrice: row[idx[7]].F,
			AvgDisc: row[idx[8]].F, CountOrder: row[idx[9]].I,
		})
	}
	return tpch.SortQ1(out), nil
}

func checkQ1(r *queryResult, want tpch.Q1Result) error {
	got, err := r.q1()
	if err != nil {
		return err
	}
	return want.Equal(got, relTol)
}

func checkQ6(r *queryResult, want float64) error {
	i := r.col("revenue")
	if i < 0 || len(r.rows) != 1 {
		return fmt.Errorf("q6 result: %d rows, columns %v", len(r.rows), r.cols)
	}
	return nearRel(r.rows[0][i].F, want)
}

func nearRel(got, want float64) error {
	if math.Abs(got-want) > relTol*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

func checkQ3(r *queryResult, want tpch.Q3Result) error {
	idx := []int{r.col("l_orderkey"), r.col("revenue"), r.col("o_orderdate"), r.col("o_shippriority")}
	for _, i := range idx {
		if i < 0 {
			return fmt.Errorf("q3 result columns %v", r.cols)
		}
	}
	got := make(tpch.Q3Result, 0, len(r.rows))
	for _, row := range r.rows {
		got = append(got, tpch.Q3Row{Orderkey: row[idx[0]].I, Revenue: row[idx[1]].F,
			Orderdate: row[idx[2]].I, Shippriority: row[idx[3]].I})
	}
	return want.Equal(got, relTol)
}

// queryLayers accumulates the per-layer view of traced queries.
type queryLayers struct {
	queries                  int
	opSelfNs                 map[string]map[string]float64 // class → op → Σ self ns
	classQueries             map[string]int
	morsels, steals          int64
	morselBusyNs, workerWall float64
	selfNs, wallNs           float64
	rowsScanned, rowsOut     float64
	segScanned, segSkipped   int64
	openUs, firstRowUs       []float64
	// segRows is the segment height of a stored table (0 for in-RAM).
	segRows int
}

func newQueryLayers() *queryLayers {
	return &queryLayers{opSelfNs: map[string]map[string]float64{}, classQueries: map[string]int{}}
}

// add folds one traced query into the accumulators.
func (q *queryLayers) add(class string, r *queryResult) {
	q.queries++
	q.classQueries[class]++
	q.openUs = append(q.openUs, float64(r.open)/1e3)
	q.firstRowUs = append(q.firstRowUs, float64(r.firstRow)/1e3)
	q.steals += r.steals
	q.segScanned += r.scanned
	q.segSkipped += r.skipped
	q.rowsOut += float64(len(r.rows))
	tr := r.trace
	if tr == nil {
		return
	}
	if q.opSelfNs[class] == nil {
		q.opSelfNs[class] = map[string]float64{}
	}
	for op, ns := range tr.OpSelfTimes() {
		q.opSelfNs[class][op] += float64(ns)
		q.selfNs += float64(ns)
	}
	if q.segRows > 0 {
		// Pruned stored-table scans read whole segments.
		q.rowsScanned += float64(r.scanned) * float64(q.segRows)
	}
	var wall float64
	workers := 1
	for _, s := range tr.Spans() {
		switch s.Kind() {
		case qtrace.KindQuery:
			wall = float64(s.DurNs())
			if w, ok := s.Attr("workers").(int); ok && w > 0 {
				workers = w
			}
		case qtrace.KindMorsel:
			q.morsels++
			q.morselBusyNs += float64(s.DurNs())
		case qtrace.KindOp:
			if s.Name() == "scan" && q.segRows == 0 {
				q.rowsScanned += float64(scanRows(s))
			}
		}
	}
	q.wallNs += wall
	q.workerWall += wall * float64(workers)
}

// scanRows is the rows a scan span produced, or — when the fused tier
// inlined the scan and its span counts nothing — the rows of the table it
// read.
func scanRows(s *qtrace.Span) int64 {
	if n := s.Rows(); n > 0 {
		return n
	}
	if n, ok := s.Attr("table_rows").(int); ok {
		return int64(n)
	}
	return 0
}

// fill writes the advm/engine/morsel/colstore/qtrace layer metrics.
func (q *queryLayers) fill(vals map[string]float64) {
	if q.queries == 0 {
		return
	}
	n := float64(q.queries)
	vals["advm.query_open_us"] = median(q.openUs)
	vals["advm.first_row_us"] = median(q.firstRowUs)
	for _, c := range engineOps {
		cq := q.classQueries[c.class]
		if cq == 0 {
			continue
		}
		for _, op := range c.ops {
			vals["engine."+c.class+"."+op+".self_ms"] = q.opSelfNs[c.class][op] / 1e6 / float64(cq)
		}
	}
	vals["engine.rows_scanned_per_row_out"] = ratio(q.rowsScanned, q.rowsOut)
	vals["morsel.morsels_per_query"] = float64(q.morsels) / n
	vals["morsel.steals_per_query"] = float64(q.steals) / n
	vals["morsel.worker_busy_ratio"] = ratio(q.morselBusyNs, q.workerWall)
	vals["qtrace.coverage_ratio"] = ratio(q.selfNs, q.wallNs)
	if q.segScanned+q.segSkipped > 0 {
		vals["colstore.segments_scanned"] = float64(q.segScanned) / n
		vals["colstore.segments_skipped"] = float64(q.segSkipped) / n
		vals["colstore.skip_ratio"] = ratio(float64(q.segSkipped), float64(q.segScanned+q.segSkipped))
	}
}

// engineDelta fills the advm/fused counters between two engine snapshots
// taken around `queries` queries.
func engineDelta(vals map[string]float64, a, b advm.EngineStats, queries int) {
	n := float64(queries)
	if n == 0 {
		return
	}
	vals["advm.parallel_query_ratio"] = float64(b.ParallelQueries-a.ParallelQueries) / n
	vals["fused.fused_query_ratio"] = float64(b.FusedQueries-a.FusedQueries) / n
	vals["fused.cache_hits"] = float64(b.FusedCacheHits-a.FusedCacheHits) / n
	vals["fused.deopts"] = float64(b.FusedDeopts-a.FusedDeopts) / n
	vals["fused.compiles"] = float64(b.FusedCompiles)
	vals["fused.tier_ups"] = float64(b.TierUps)
}

// overheadRatio compares traced and untraced runs of the same mix: the sum
// over classes of traced median latency over the untraced one.
func overheadRatio(traced, untraced *opLog) float64 {
	var t, u float64
	for _, c := range untraced.classes() {
		if traced.classCount(c) == 0 {
			continue
		}
		t += traced.classP50(c)
		u += untraced.classP50(c)
	}
	return ratio(t, u)
}

// Lambda lowering: the lambdas of a plan, as the engine lowers them, so the
// dsl/nir layers can be timed on the workload's own expressions.

// q1Lambdas are the lambdas of a Q1-shaped plan whose ship-date filter is
// shipFilter.
func q1Lambdas(shipFilter string) []lambdaSpec {
	return []lambdaSpec{
		{shipFilter, []string{"l_shipdate"}, []advm.Kind{advm.I64}, advm.Bool},
		{`(\p d -> p * (1.0 - d))`, []string{"l_extendedprice", "l_discount"}, []advm.Kind{advm.F64, advm.F64}, advm.F64},
		{`(\dp t -> dp * (1.0 + t))`, []string{"disc_price", "l_tax"}, []advm.Kind{advm.F64, advm.F64}, advm.F64},
	}
}

func q6Lambdas(p tpch.Q6Params) []lambdaSpec {
	return []lambdaSpec{
		{fmt.Sprintf(`(\d -> (d >= %d) && (d < %d))`, p.ShipLo, p.ShipHi), []string{"l_shipdate"}, []advm.Kind{advm.I64}, advm.Bool},
		{fmt.Sprintf(`(\x -> (x >= %v) && (x <= %v))`, p.DiscLo, p.DiscHi), []string{"l_discount"}, []advm.Kind{advm.F64}, advm.Bool},
		{fmt.Sprintf(`(\q -> q < %d)`, p.QtyMax), []string{"l_quantity"}, []advm.Kind{advm.I64}, advm.Bool},
		{`(\p d -> p * d)`, []string{"l_extendedprice", "l_discount"}, []advm.Kind{advm.F64, advm.F64}, advm.F64},
	}
}

func q3Lambdas(p tpch.Q3Params) []lambdaSpec {
	return []lambdaSpec{
		{fmt.Sprintf(`(\s -> s == %d)`, p.Segment), []string{"c_segkey"}, []advm.Kind{advm.I64}, advm.Bool},
		{fmt.Sprintf(`(\d -> d < %d)`, p.Date), []string{"o_orderdate"}, []advm.Kind{advm.I64}, advm.Bool},
		{fmt.Sprintf(`(\d -> d > %d)`, p.Date), []string{"l_shipdate"}, []advm.Kind{advm.I64}, advm.Bool},
		{`(\p d -> p * (1.0 - d))`, []string{"l_extendedprice", "l_discount"}, []advm.Kind{advm.F64, advm.F64}, advm.F64},
	}
}

// q1Filter is TPC-H Q1's ship-date filter, as tpch.PlanQ1 writes it.
func q1Filter(cutoff int64) string { return fmt.Sprintf(`(\d -> d <= %d)`, cutoff) }

// q1WindowFilter is the ship-date filter of adhoc-colstore's Q1 shape: the
// window [lo, cutoff]. With lo at or below the first ship date it keeps the
// same rows as q1Filter(cutoff).
func q1WindowFilter(lo, cutoff int64) string {
	return fmt.Sprintf(`(\d -> (d >= %d) && (d <= %d))`, lo, cutoff)
}

// planQ1 is TPC-H Q1 with the ship-date filter as a parameter (tpch.PlanQ1
// fixes it): the Q1 shape of the adhoc-colstore workload.
func planQ1(st advm.TableSource, shipFilter string) *advm.Plan {
	ls := q1Lambdas(shipFilter)
	return advm.Scan(st,
		"l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate").
		Filter(ls[0].lambda, "l_shipdate").
		Compute("disc_price", ls[1].lambda, advm.F64, "l_extendedprice", "l_discount").
		Compute("charge", ls[2].lambda, advm.F64, "disc_price", "l_tax").
		Aggregate([]string{"l_returnflag", "l_linestatus"},
			advm.Agg{Func: advm.AggSum, Col: "l_quantity", As: "sum_qty"},
			advm.Agg{Func: advm.AggSum, Col: "l_extendedprice", As: "sum_base_price"},
			advm.Agg{Func: advm.AggSum, Col: "disc_price", As: "sum_disc_price"},
			advm.Agg{Func: advm.AggSum, Col: "charge", As: "sum_charge"},
			advm.Agg{Func: advm.AggAvg, Col: "l_quantity", As: "avg_qty"},
			advm.Agg{Func: advm.AggAvg, Col: "l_extendedprice", As: "avg_price"},
			advm.Agg{Func: advm.AggAvg, Col: "l_discount", As: "avg_disc"},
			advm.Agg{Func: advm.AggCount, As: "count_order"})
}
