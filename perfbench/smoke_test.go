package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the tests read.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestSpecMatchesProgram: the metric lists the program emits are the ones
// BENCHMARK.json records, with the same units, and so are the workloads.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	check := func(kind string, spec []struct{ Name, Unit string }, prog []metricDef) {
		if len(spec) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(spec), len(prog))
		}
		units := map[string]string{}
		for _, m := range prog {
			units[m.name] = m.unit
		}
		for _, m := range spec {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program has unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", s.EndToEnd, e2eMetrics)
	check("per_layer", s.PerLayer, layerMetrics)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
	}
	for _, w := range workloads {
		for _, n := range w.layers {
			if !known[n] {
				t.Errorf("%s measures %s, which is not a per-layer metric", w.name, n)
			}
		}
	}
}

// zeroAllowed lists the measured per-layer metrics that read 0 on a healthy
// run, keyed by metric or by workload/metric, with the reason. Every other
// metric a workload measures must read above 0.
var zeroAllowed = map[string]string{
	"fused.deopts":                         "no plan deoptimizes while its data stays the same",
	"vm.guard_failures":                    "the programs' type guards hold on every input",
	"server.rejected_ratio":                "the fixed rate stays below capacity, so admission rejects nothing",
	"morsel.steals_per_query":              "at tiny scale a query may have too few morsels to steal",
	"engine.q1.scan.self_ms":               "scan spans record no self time today",
	"engine.q6.scan.self_ms":               "scan spans record no self time today",
	"engine.q3.scan.self_ms":               "scan spans record no self time today",
	"engine.q3.aggregate.self_ms":          "self time is clamped at 0, and in a fused plan the compute below the aggregate can report more busy time than it",
	"engine.q6.aggregate.self_ms":          "self time is clamped at 0, and in a fused plan the compute below the aggregate can report more busy time than it",
	"tpch-hot/engine.q1.filter.self_ms":    "the fused tier runs the filter inside its compute span",
	"tpch-hot/engine.q6.filter.self_ms":    "the fused tier runs the filter inside its compute span",
	"serve-mixed/engine.q1.filter.self_ms": "the named queries run fused: the filter is inside the compute span",
	"serve-mixed/engine.q6.filter.self_ms": "the named queries run fused: the filter is inside the compute span",
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each run is correct and emits every metric BENCHMARK.json
// names, with its unit, and nothing else; that every end-to-end metric
// reads above 0; and that every per-layer metric the workload measures
// reads above 0 unless zeroAllowed says why it may not.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	s := readSpec(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range s.Workloads {
		def, ok := lookupWorkload(w.Name)
		if !ok {
			t.Fatalf("workload %s unknown to the program", w.Name)
		}
		measured := map[string]bool{}
		for _, n := range def.layers {
			measured[n] = true
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--sf", "0.01", "--dsl-rows", "65536")
				cmd.Env = append(os.Environ(), "PERFBENCH_DIR="+t.TempDir())
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out)
				}
				res, err := lastJSON(out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					case trace == "1" && measured[m.Name] && got.Value <= 0 &&
						zeroAllowed[m.Name] == "" && zeroAllowed[w.Name+"/"+m.Name] == "":
						t.Errorf("%s measures %s, which reads %v, want > 0", w.Name, m.Name, got.Value)
					}
				}
			})
		}
	}
}
