package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is a metric name with its unit. The lists below are the ones
// BENCHMARK.json records; the smoke test checks the two agree.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every untraced run of every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// engineOps lists, per TPC-H query class, the plan operators whose qtrace
// self time is reported as engine.<class>.<op>.self_ms.
var engineOps = []struct {
	class string
	ops   []string
}{
	{"q1", []string{"scan", "filter", "compute", "aggregate"}},
	{"q6", []string{"scan", "filter", "compute", "aggregate"}},
	{"q3", []string{"scan", "filter", "join-build", "join-probe", "compute", "aggregate", "topk"}},
}

// layerMetrics are reported by every traced run; a layer the workload does
// not exercise reads 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"class.q1.p50_ms", "ms"},
		{"class.q6.p50_ms", "ms"},
		{"class.q3.p50_ms", "ms"},
		{"class.exec.p50_ms", "ms"},
		{"advm.query_open_us", "us"},
		{"advm.first_row_us", "us"},
		{"advm.parallel_query_ratio", "ratio"},
		{"advm.prepare_hit_ratio", "ratio"},
		{"advm.prepare_miss_us", "us"},
		{"fused.fused_query_ratio", "ratio"},
		{"fused.compiles", "count"},
		{"fused.cache_hits", "count/query"},
		{"fused.deopts", "count/query"},
		{"fused.tier_ups", "count"},
	}
	for _, c := range engineOps {
		for _, op := range c.ops {
			ms = append(ms, metricDef{"engine." + c.class + "." + op + ".self_ms", "ms"})
		}
	}
	return append(ms, []metricDef{
		{"engine.rows_scanned_per_row_out", "count"},
		{"morsel.morsels_per_query", "count"},
		{"morsel.steals_per_query", "count"},
		{"morsel.worker_busy_ratio", "ratio"},
		{"morsel.dispatch_ns_per_morsel", "ns"},
		{"vm.run_us", "us"},
		{"vm.injected_traces", "count/100runs"},
		{"vm.reverted_traces", "count/100runs"},
		{"vm.guard_failures", "count/100runs"},
		{"vm.interp_vs_adaptive_ratio", "ratio"},
		{"dsl.parse_us", "us"},
		{"nir.normalize_us", "us"},
		{"primitive.select_cmp_i64.ns_per_elem", "ns"},
		{"primitive.select_cmp_f64.ns_per_elem", "ns"},
		{"primitive.map_mul_f64.ns_per_elem", "ns"},
		{"primitive.map_arith_i64.ns_per_elem", "ns"},
		{"primitive.fold_sum_f64.ns_per_elem", "ns"},
		{"colstore.segments_scanned", "count/query"},
		{"colstore.segments_skipped", "count/query"},
		{"colstore.skip_ratio", "ratio"},
		{"colstore.decode_mb_per_s", "MB/s"},
		{"compress.raw.decode_ns_per_elem", "ns"},
		{"compress.dict.decode_ns_per_elem", "ns"},
		{"compress.rle.decode_ns_per_elem", "ns"},
		{"compress.for.decode_ns_per_elem", "ns"},
		{"colstore.stored_bytes_ratio", "ratio"},
		{"colstore.write_s", "s"},
		{"server.admission_wait_ms", "ms"},
		{"server.rejected_ratio", "ratio"},
		{"server.overhead_ms.q1", "ms"},
		{"server.overhead_ms.q6", "ms"},
		{"server.overhead_ms.q3", "ms"},
		{"server.overhead_ms.adhoc", "ms"},
		{"server.repeat_fingerprint_ratio", "ratio"},
		{"loadgen.late_ms_p90", "ms"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cycles_per_op", "count"},
		{"runtime.gc_cpu_ratio", "ratio"},
		{"qtrace.overhead_ratio", "ratio"},
		{"qtrace.coverage_ratio", "ratio"},
		{"tpch.load_s", "s"},
	}...)
}()

// The per-layer metrics each workload measures (workloadDef.layers).
var (
	// Every traced run measures allocation and GC, the tracing overhead,
	// the lowering of its own lambdas or programs, and the layer kernels.
	commonLayers = []string{
		"runtime.alloc_bytes_per_op", "runtime.allocs_per_op", "runtime.gc_cycles_per_op", "runtime.gc_cpu_ratio",
		"qtrace.overhead_ratio", "dsl.parse_us", "nir.normalize_us",
		"primitive.select_cmp_i64.ns_per_elem", "primitive.select_cmp_f64.ns_per_elem",
		"primitive.map_mul_f64.ns_per_elem", "primitive.map_arith_i64.ns_per_elem", "primitive.fold_sum_f64.ns_per_elem",
		"compress.raw.decode_ns_per_elem", "compress.dict.decode_ns_per_elem",
		"compress.rle.decode_ns_per_elem", "compress.for.decode_ns_per_elem",
		"morsel.dispatch_ns_per_morsel",
	}
	// Workloads of relational queries over TPC-H tables also measure these.
	queryLayerNames = []string{
		"tpch.load_s", "advm.parallel_query_ratio", "engine.rows_scanned_per_row_out",
		"morsel.morsels_per_query", "morsel.steals_per_query", "morsel.worker_busy_ratio", "qtrace.coverage_ratio",
	}
	fusedLayers = []string{"fused.fused_query_ratio", "fused.compiles", "fused.cache_hits", "fused.deopts", "fused.tier_ups"}

	tpchHotLayers = slices.Concat(commonLayers, queryLayerNames, fusedLayers,
		classLayers("q1", "q6", "q3"), engineLayers("q1", "q6", "q3"),
		[]string{"advm.query_open_us", "advm.first_row_us"})
	adhocLayers = slices.Concat(commonLayers, queryLayerNames,
		classLayers("q1", "q6"), engineLayers("q1", "q6"),
		[]string{"advm.query_open_us", "advm.first_row_us",
			"colstore.segments_scanned", "colstore.segments_skipped", "colstore.skip_ratio",
			"colstore.decode_mb_per_s", "colstore.stored_bytes_ratio", "colstore.write_s"})
	serveLayers = slices.Concat(commonLayers, queryLayerNames, fusedLayers,
		classLayers("q1", "q6", "q3", "exec"), engineLayers("q1", "q6", "q3"),
		[]string{"advm.prepare_hit_ratio", "advm.prepare_miss_us",
			"server.admission_wait_ms", "server.rejected_ratio",
			"server.overhead_ms.q1", "server.overhead_ms.q6", "server.overhead_ms.q3", "server.overhead_ms.adhoc",
			"server.repeat_fingerprint_ratio", "loadgen.late_ms_p90"})
	dslLayers = slices.Concat(commonLayers,
		[]string{"vm.run_us", "vm.injected_traces", "vm.reverted_traces", "vm.guard_failures",
			"vm.interp_vs_adaptive_ratio", "advm.prepare_hit_ratio", "advm.prepare_miss_us"})
)

func classLayers(classes ...string) []string {
	var out []string
	for _, c := range classes {
		out = append(out, "class."+c+".p50_ms")
	}
	return out
}

func engineLayers(classes ...string) []string {
	var out []string
	for _, c := range engineOps {
		if slices.Contains(classes, c.class) {
			for _, op := range c.ops {
				out = append(out, "engine."+c.class+"."+op+".self_ms")
			}
		}
	}
	return out
}

// opLog records every timed operation of a run.
type opLog struct {
	attempted, failed int64
	class             []string
	lat               []time.Duration
	// errs holds failures counted but not yet printed (see reportErrs).
	errs []string
}

func (l *opLog) add(class string, d time.Duration) {
	l.class = append(l.class, class)
	l.lat = append(l.lat, d)
}

// fail counts an operation that errored or returned a wrong result.
func (l *opLog) fail(format string, args ...any) {
	l.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// reportErrs prints the failures recorded silently.
func (l *opLog) reportErrs() {
	for _, e := range l.errs {
		fmt.Fprintln(os.Stderr, "FAIL: "+e)
	}
	l.errs = nil
}

func (l *opLog) failRatio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.class = append(l.class, o.class...)
	l.lat = append(l.lat, o.lat...)
}

func (l *opLog) msOf(keep func(class string) bool) []float64 {
	var out []float64
	for i, d := range l.lat {
		if keep(l.class[i]) {
			out = append(out, float64(d)/1e6)
		}
	}
	return out
}

func (l *opLog) allMs() []float64 { return l.msOf(func(string) bool { return true }) }

func (l *opLog) classP50(c string) float64 {
	return median(l.msOf(func(x string) bool { return x == c }))
}

func (l *opLog) classCount(c string) int { return len(l.msOf(func(x string) bool { return x == c })) }

func (l *opLog) classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range l.class {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// closedLoopMetrics derives the end-to-end numbers of a closed loop: ops/s
// is completed operations per second of operation time (one client, so
// the verification work between operations is not charged to the system).
func closedLoopMetrics(l *opLog) map[string]float64 {
	ms := l.allMs()
	var sum float64
	for _, v := range ms {
		sum += v
	}
	vals := map[string]float64{
		"latency_p50_ms": quantile(ms, 0.5),
		"latency_p90_ms": quantile(ms, 0.9),
	}
	if sum > 0 {
		vals["ops_per_s"] = float64(len(ms)) / (sum / 1e3)
	}
	return vals
}

// classP50s adds class.<c>.p50_ms for the classes named.
func classP50s(vals map[string]float64, l *opLog, classes ...string) {
	for _, c := range classes {
		if l.classCount(c) > 0 {
			vals["class."+c+".p50_ms"] = l.classP50(c)
		}
	}
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, ",")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// liveHeapMB collects garbage, returns freed memory to the OS and reports
// the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rssPeakMB reads VmHWM (peak resident set) of a process from procfs.
func rssPeakMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters (runtime/metrics).
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

// runtimePerOp fills the runtime.* layer metrics from two samples taken
// around ops operations.
func runtimePerOp(vals map[string]float64, a, b runtimeSample, ops int) {
	n := float64(ops)
	if n == 0 {
		return
	}
	vals["runtime.alloc_bytes_per_op"] = (b.allocBytes - a.allocBytes) / n
	vals["runtime.allocs_per_op"] = (b.allocObjects - a.allocObjects) / n
	vals["runtime.gc_cycles_per_op"] = (b.gcCycles - a.gcCycles) / n
	vals["runtime.gc_cpu_ratio"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}
