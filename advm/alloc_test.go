package advm_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/advm"
	"repro/internal/tpch"
)

// TestHotQueryAllocations: in the steady state a hot-tier query allocates
// almost nothing per row. Scans over in-RAM tables hand out views of the
// table columns, fused loops recycle their computed columns, gathers and
// selections, and the aggregation folds through selection vectors, so what
// remains per query is plan building, per-morsel tables and the result.
// The bounds are per query at SF 0.02 (120k lineitem rows), where copying
// every scanned chunk cost Q6 5.1 MB, Q1 12 MB and Q3 10–11 MB.
func TestHotQueryAllocations(t *testing.T) {
	const (
		sf      = 0.02
		queries = 10
	)
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)
	cases := []struct {
		name  string
		plan  *advm.Plan
		limit uint64 // bytes per query
	}{
		{"q6", q6Plan(li), 512 << 10},
		{"q1", tpch.PlanQ1(li), 1 << 20},
		{"q3", tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()), 3 << 20},
	}
	for _, par := range []int{1, 4} {
		eng := hotEngine(t, advm.WithParallelism(par), advm.WithTierThresholds(2, 3))
		sess, err := eng.Session()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/p%d", c.name, par), func(t *testing.T) {
				run := func() *advm.Rows {
					rows, err := sess.Query(context.Background(), c.plan)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rows.Count(); err != nil {
						t.Fatal(err)
					}
					return rows
				}
				// Warm up past the hot threshold, then a few more runs so
				// pools and caches reach their steady state.
				for i := 0; i < 6; i++ {
					run()
				}
				if rows := run(); rows.Tier() != "hot" || !rows.Fused() {
					t.Fatalf("warmed-up query ran at tier %q (fused %v), want hot and fused", rows.Tier(), rows.Fused())
				}
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < queries; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				bytes := (after.TotalAlloc - before.TotalAlloc) / queries
				allocs := (after.Mallocs - before.Mallocs) / queries
				t.Logf("%s at parallelism %d: %d B and %d allocs per query", c.name, par, bytes, allocs)
				if bytes > c.limit {
					t.Errorf("%s at parallelism %d allocated %d B per query, want ≤ %d", c.name, par, bytes, c.limit)
				}
			})
		}
		eng.Close()
	}
}
