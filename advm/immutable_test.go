package advm_test

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"repro/advm"
	"repro/internal/tpch"
	"repro/internal/vector"
)

// tableChecksum hashes every value of every column of an in-RAM table.
func tableChecksum(st *advm.Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for c := range st.Schema().Names {
		col := st.Col(c)
		for r := 0; r < col.Len(); r++ {
			switch x := col.Get(r); x.Kind {
			case vector.F64:
				put(math.Float64bits(x.F))
			case vector.Str:
				put(uint64(len(x.S)))
				h.Write([]byte(x.S))
			case vector.Bool:
				if x.B {
					put(1)
				} else {
					put(0)
				}
			default:
				put(uint64(x.I))
			}
		}
	}
	return h.Sum64()
}

// TestQueriesLeaveTablesUntouched: scans over in-RAM tables hand out views
// of the table columns, so an operator writing through a chunk would
// corrupt the table itself. Running Q1, Q3 and Q6 cold and forced hot at
// parallelism 1 and 4 — plus the fused deopt regression plan, whose
// interpreted fallback takes over mid-stream — must leave every column of
// every table bit-identical.
func TestQueriesLeaveTablesUntouched(t *testing.T) {
	li := tpch.GenLineitem(0.01, 7)
	ord := tpch.GenOrders(0.01, 7)
	cust := tpch.GenCustomer(0.01, 7)
	dt := deoptTable()
	tables := map[string]*advm.Table{"lineitem": li, "orders": ord, "customer": cust, "deopt": dt}
	before := map[string]uint64{}
	for name, st := range tables {
		before[name] = tableChecksum(st)
	}
	plans := map[string]*advm.Plan{
		"q1":    tpch.PlanQ1(li),
		"q3":    tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()),
		"q6":    tpch.PlanQ6(li, tpch.DefaultQ6Params()),
		"deopt": deoptPlan(dt),
	}
	for _, par := range []int{1, 4} {
		for _, hot := range []bool{false, true} {
			opts := []advm.Option{advm.WithParallelism(par), advm.WithTieredExecution(false)}
			if hot {
				opts = []advm.Option{advm.WithParallelism(par), advm.WithTierThresholds(1, 1)}
			}
			sess, err := advm.NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for name, plan := range plans {
				rows, err := sess.Query(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				if hot && !rows.Fused() {
					t.Errorf("%s par=%d: forced-hot query did not mount fused loops", name, par)
				}
				if n := len(collectAllRows(t, rows)); n == 0 {
					t.Errorf("%s par=%d hot=%v: no result rows", name, par, hot)
				}
			}
			sess.Close()
			for name, st := range tables {
				if got := tableChecksum(st); got != before[name] {
					t.Fatalf("par=%d hot=%v: table %s changed (checksum %x, was %x)", par, hot, name, got, before[name])
				}
			}
		}
	}
}
