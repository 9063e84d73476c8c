package advm_test

import (
	"math"
	"testing"

	"repro/advm"
)

// TestShiftMapsMatchGo runs `x << 3` and `x >> 3` maps over values of 8 and
// more and negative values, interpreted and with every segment compiled, and
// checks Go's shift results element by element.
func TestShiftMapsMatchGo(t *testing.T) {
	const n = 1 << 13
	data := make([]int64, n)
	edges := []int64{1, 5, 8, 100, 1000, -1, -8, -100, -1000, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	for i := range data {
		if i < len(edges) {
			data[i] = edges[i]
		} else {
			data[i] = int64(i*7919) - n*3000
		}
	}
	modes := map[string][]advm.Option{
		"interpreted": {advm.WithJIT(false)},
		"jit": {
			advm.WithSyncOptimizer(true),
			advm.WithMicroAdaptive(false),
			advm.WithHotThresholds(1, 0),
			advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}),
		},
	}
	for _, c := range []struct {
		name, lambda string
		want         func(int64) int64
	}{
		{"shl", `\x -> x << 3`, func(x int64) int64 { return x << 3 }},
		{"shr", `\x -> x >> 3`, func(x int64) int64 { return x >> 3 }},
	} {
		src := `
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  let r = map (` + c.lambda + `) xs
  write out i r
  i := i + len(xs)
}
`
		for mode, opts := range modes {
			sess := advm.MustCompile(src, map[string]advm.Kind{"data": advm.I64, "out": advm.I64},
				append([]advm.Option{advm.WithChunkLen(1024)}, opts...)...)
			for run := 0; run < 3; run++ {
				ext := map[string]*advm.Vector{"data": advm.FromI64(data), "out": advm.NewVector(advm.I64, 0, n)}
				if err := sess.Run(t.Context(), ext); err != nil {
					t.Fatalf("%s/%s: %v", c.name, mode, err)
				}
				got := ext["out"].I64()
				if len(got) != n {
					t.Fatalf("%s/%s run %d: %d outputs, want %d", c.name, mode, run, len(got), n)
				}
				for i, x := range data {
					if want := c.want(x); got[i] != want {
						t.Fatalf("%s/%s run %d: f(%d) = %d, want %d", c.name, mode, run, x, got[i], want)
					}
				}
			}
			if st := sess.Stats(); mode == "jit" && len(st.CompiledSegments) == 0 {
				t.Fatalf("%s: forced-hot session compiled nothing; transitions: %+v", c.name, st.Transitions)
			}
		}
	}
}
