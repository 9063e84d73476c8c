// Command perfbench is the repository's end-to-end benchmark. It drives the
// system only through its public entry points — advm.Engine, Session.Query,
// Prepared.Run, the advm-serve HTTP API (internal/server) and the exported
// functions of the internal layers — and reports, per workload, the
// end-to-end metrics a user sees (untraced run) or the per-layer metrics
// that attribute them (traced run, --trace 1).
//
//	bash perfbench/run.sh --workload tpch-hot --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Any wrong result or failed validity guard makes the run exit non-zero.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// sf is the TPC-H scale factor; dslRows the input length of the
	// dsl-programs arrays. Both are fixed for the recorded benchmark and
	// shrink only in the smoke test.
	sf      float64
	dslRows int
	// workDir receives scratch files (colstore tables, span dumps).
	workDir string
	nproc   int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up copy of a workload: its tables, engine or server,
// warmed up and ready for the first timed operation.
type instance interface {
	// measure runs the untraced closed or open loop for d and returns the
	// end-to-end metrics (peak RSS and set-up time are added by the caller).
	measure(ctx context.Context, d time.Duration) (vals map[string]float64, ops *opLog, err error)
	// traced runs the workload untraced for half of d and traced for the
	// other half and returns the per-layer metrics.
	traced(ctx context.Context, d time.Duration) (vals map[string]float64, ops *opLog, err error)
	// peakRSSMB is the peak resident memory of the process executing the
	// workload (this one, or the server child).
	peakRSSMB() float64
	close()
}

// workloadDef names a workload, how to set it up, and the per-layer
// metrics its traced run measures. Why each workload exists is recorded in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, cfg *config) (instance, error)
	// layers are the per-layer metrics the workload exercises. A traced run
	// that does not measure one of them fails; every other per-layer metric
	// reads 0.
	layers []string
}

var workloads = []workloadDef{
	{"tpch-hot", setupTPCHHot, tpchHotLayers},
	{"adhoc-colstore", setupAdhocColstore, adhocLayers},
	{"serve-mixed", setupServeMixed, serveLayers},
	{"dsl-programs", setupDSLPrograms, dslLayers},
}

func main() {
	cfg := config{nproc: runtime.NumCPU()}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: TPC-H generator seed and every random parameter")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Float64Var(&cfg.sf, "sf", 0.1, "TPC-H scale factor")
	flag.IntVar(&cfg.dslRows, "dsl-rows", 1<<20, "input rows of the dsl-programs arrays")
	serveMode := flag.Bool("serve", false, "internal: run the query server child of serve-mixed")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workDir = os.Getenv("PERFBENCH_DIR")
	if cfg.workDir == "" {
		cfg.workDir = ".bench_build"
	}

	if *serveMode {
		if err := serveChild(&cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.workload == "all" {
		os.Exit(runAll(&cfg))
	}
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := runWorkload(&cfg, def)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// Heap limits of the isolation check: a workload starts on a near-empty
// heap, and closing one set-up copy must hand its tables back before the
// next is built, so no copy measures on another's leftovers.
const (
	startHeapLimitMB   = 32
	releaseHeapSlackMB = 32
)

// setups is how many times a run builds the workload from scratch; setup_s
// is their median.
const setups = 3

// runWorkload sets the workload up setups times (keeping the last copy),
// measures it, and assembles the result.
func runWorkload(cfg *config, def workloadDef) (*result, error) {
	ctx := context.Background()
	fmt.Printf("env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s sf=%g dsl_rows=%d seconds=%g trace=%v\n",
		def.name, cfg.seed, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), cfg.sf, cfg.dslRows, cfg.seconds, cfg.trace)
	heap0 := liveHeapMB()
	fmt.Printf("heap at start: %.1f MB\n", heap0)
	if heap0 > startHeapLimitMB {
		return nil, fmt.Errorf("isolation: heap at start is %.1f MB (limit %d MB)", heap0, startHeapLimitMB)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}

	var inst instance
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			if h := liveHeapMB(); h > heap0+releaseHeapSlackMB {
				return nil, fmt.Errorf("isolation: %.1f MB still live after closing set-up %d (start %.1f MB)", h, i, heap0)
			}
		}
		start := time.Now()
		var err error
		inst, err = def.setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()
	fmt.Printf("heap after set-up: %.1f MB; set-up times %s s\n", liveHeapMB(), fmtList(setupS))

	d := time.Duration(cfg.seconds * float64(time.Second))
	var (
		vals map[string]float64
		ops  *opLog
		err  error
	)
	if cfg.trace {
		vals, ops, err = inst.traced(ctx, d)
	} else {
		vals, ops, err = inst.measure(ctx, d)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		vals["setup_s"] = median(setupS)
		vals["peak_rss_mb"] = inst.peakRSSMB()
	}
	res := &result{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   map[string]metric{},
	}
	want, required := e2eMetrics, []string{}
	for _, m := range e2eMetrics {
		required = append(required, m.name)
	}
	if cfg.trace {
		want, required = layerMetrics, def.layers
	}
	for _, m := range want {
		v, ok := vals[m.name]
		if !ok && slices.Contains(required, m.name) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		// A layer the workload does not exercise reads 0: the "predicted
		// flat" side of the layer's prediction.
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	report(def.name, ops, res)
	return res, nil
}

// report prints the human-readable lines: the per-class medians the JSON
// line leaves out, then every metric by name with its unit.
func report(name string, ops *opLog, res *result) {
	fmt.Printf("%s: attempted=%d failed=%d fail_ratio=%g\n", name, ops.attempted, ops.failed, ops.failRatio())
	for _, c := range ops.classes() {
		fmt.Printf("  %s_p50_ms = %.4f ms (n=%d)\n", c, ops.classP50(c), ops.classCount(c))
	}
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("  %s = %.6g %s\n", n, m.Value, m.Unit)
	}
}

// runAll runs every workload in its own child process — so no workload
// starts on another's heap — and prints each end-to-end metric by name and
// unit. It fails when any workload fails or reports a wrong result.
func runAll(cfg *config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	summary := map[string]*result{}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", boolInt(cfg.trace),
			"--sf", fmt.Sprint(cfg.sf), "--dsl-rows", fmt.Sprint(cfg.dslRows)}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		res, perr := lastJSON(out)
		if err != nil || perr != nil || !res.Correct {
			fmt.Printf("%s: FAILED (%v %v)\n", w.name, err, perr)
			status = 1
			continue
		}
		summary[w.name] = res
	}
	fmt.Println("summary:")
	for _, w := range workloads {
		res, ok := summary[w.name]
		if !ok {
			fmt.Printf("  %-15s failed\n", w.name)
			continue
		}
		var parts []string
		for _, n := range sortedKeys(res.Metrics) {
			parts = append(parts, fmt.Sprintf("%s=%.4g %s", n, res.Metrics[n].Value, res.Metrics[n].Unit))
		}
		fmt.Printf("  %-15s fail_ratio=%g %s\n", w.name, float64(res.Failed)/float64(res.Attempted), strings.Join(parts, " "))
	}
	js, _ := json.Marshal(summary)
	fmt.Println(string(js))
	return status
}

func lastJSON(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 {
		return nil, errors.New("no output")
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

func boolInt(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// spanFile is where a traced run writes its span dump.
func spanFile(cfg *config) string {
	return filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}
