package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/advm"
	"repro/internal/qtrace"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/vector"
)

// serveChild is the server process of serve-mixed: the advm-serve stack
// (one engine, internal/server with advm-serve's default configuration)
// over TPC-H tables generated from the workload seed, on a loopback port.
// It prints "listening <addr> <load seconds>" and serves until its
// standard input closes, then drains and exits.
func serveChild(cfg *config) error {
	start := time.Now()
	tables := map[string]*vector.DSMStore{
		"lineitem": tpch.GenLineitem(cfg.sf, cfg.seed),
		"orders":   tpch.GenOrders(cfg.sf, cfg.seed),
		"customer": tpch.GenCustomer(cfg.sf, cfg.seed),
	}
	loadS := time.Since(start).Seconds()
	eng, err := advm.NewEngine(advm.WithParallelism(cfg.nproc))
	if err != nil {
		return err
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{
		QueueWait:          2 * time.Second,
		DefaultTimeout:     30 * time.Second,
		SlowQueryThreshold: time.Second,
		SlowLogSize:        32,
	})
	for name, t := range tables {
		srv.RegisterTable(name, t)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("/perfbench/runtime", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(readRuntime().slice())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("listening %s %g\n", ln.Addr(), loadS)

	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	select {
	case err := <-errCh:
		return err
	case <-stdinClosed:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	return hs.Shutdown(ctx)
}

func (s runtimeSample) slice() []float64 {
	return []float64{s.allocBytes, s.allocObjects, s.gcCycles, s.gcCPU, s.totalCPU}
}

// serveMixed is the serve-mixed workload: a server child process and an
// open-loop load generator over at most two keep-alive connections.
type serveMixed struct {
	cfg           *config
	cmd           *exec.Cmd
	stdin         io.WriteCloser
	base          string
	client        *http.Client
	loadS         float64
	li, ord, cust *vector.DSMStore // the same tables, for references
	rng           *rand.Rand
	execFP        string
	want          map[string]func(*queryResult) error
}

// Load shape. The offered rate of the latency phase and the ladder's rungs
// are fixed numbers, the same on every commit and host, so a change shows
// as a latency or capacity change and never as a different load.
const (
	serveConns      = 2                      // keep-alive connections
	serveFixedRate  = 10.0                   // requests/s of the latency phase
	serveLimit      = 400 * time.Millisecond // p90 limit of a ladder rung
	ladderBase      = 10.0                   // rung k offers ladderBase·ladderStep^k requests/s
	ladderStep      = 1.05
	latencyShare    = 0.5 // share of the run spent on the latency phase
	minRungDuration = 2 * time.Second
	maxGrowth       = 0.03 // latency growth (s/s) that marks a growing backlog
	saturateFor     = 2 * time.Second
	maxExtraRungs   = 2                     // rungs the walk may run past its budget to converge
	maxLateP90      = 20 * time.Millisecond // generator lateness that flags a run
)

// serveCycle is the request mix: named q1/q6/q3 with default parameters
// (repeating fingerprints), q6 with random parameters ("q6r"), ad-hoc DSL
// pipelines with random constants, executions of a prepared program, and a
// prepare of a new program. The order is fixed and spaces the five heavy
// requests (q1, q3) four slots apart, so at the latency phase's rate they
// never queue behind each other and the tail measures service, not the
// luck of a shuffle. The seed draws every random constant. No traffic
// record exists: the shares and the rate are assumptions (README.md).
var serveCycle = []string{
	"q1", "exec", "q6r", "adhoc",
	"q3", "q6", "q6r", "adhoc",
	"q1", "exec", "q6r", "adhoc",
	"q3", "q6", "q6r", "adhoc",
	"q1", "exec", "q6", "prepare",
}

// execRows is the length of the /v1/exec input binding.
const execRows = 4096

func setupServeMixed(ctx context.Context, cfg *config) (instance, error) {
	w := &serveMixed{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed))}
	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	// Warm-up: every named plan past the hot threshold, and the exec
	// program prepared.
	for i := 0; i <= hotThreshold; i++ {
		for _, q := range []string{"q1", "q6", "q3"} {
			if _, err := w.do(ctx, "/v1/query", map[string]any{"query": q}); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up %s: %w", q, err)
			}
		}
	}
	body, err := w.do(ctx, "/v1/prepare", map[string]any{"src": e2Src, "externals": map[string]string{"d": "i64", "o": "i64"}})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up prepare: %w", err)
	}
	var pr struct{ Fingerprint string }
	if err := json.Unmarshal(body, &pr); err != nil || pr.Fingerprint == "" {
		w.close()
		return nil, fmt.Errorf("warm-up prepare: bad response %q", body)
	}
	w.execFP = pr.Fingerprint
	return w, nil
}

// start launches the server child and waits for its address.
func (w *serveMixed) start() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	w.cmd = exec.Command(self, "--serve", "--seed", fmt.Sprint(w.cfg.seed), "--sf", fmt.Sprint(w.cfg.sf))
	w.cmd.Stderr = os.Stderr
	if w.stdin, err = w.cmd.StdinPipe(); err != nil {
		return err
	}
	out, err := w.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := w.cmd.Start(); err != nil {
		w.cmd = nil
		return err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return fmt.Errorf("server child: %w", err)
	}
	var addr string
	if _, err := fmt.Sscanf(line, "listening %s %g", &addr, &w.loadS); err != nil {
		return fmt.Errorf("server child said %q: %w", line, err)
	}
	w.base = "http://" + addr
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	return nil
}

// call sends one request and returns the body of a 200 response; any other
// status is an error.
func (w *serveMixed) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// do posts body as JSON.
func (w *serveMixed) do(ctx context.Context, path string, body any) ([]byte, error) {
	js, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return w.call(ctx, http.MethodPost, path, js)
}

func (w *serveMixed) get(ctx context.Context, path string) ([]byte, error) {
	return w.call(ctx, http.MethodGet, path, nil)
}

// references builds the parent's copy of the tables and the checks of the
// default named queries; it runs after set-up.
func (w *serveMixed) references() {
	if w.want != nil {
		return
	}
	w.li = tpch.GenLineitem(w.cfg.sf, w.cfg.seed)
	w.ord = tpch.GenOrders(w.cfg.sf, w.cfg.seed)
	w.cust = tpch.GenCustomer(w.cfg.sf, w.cfg.seed)
	q1 := tpch.Q1HyPer(w.li, tpch.Q1Cutoff)
	p6 := tpch.DefaultQ6Params()
	q6 := tpch.Q6HyPer(w.li, p6.ShipLo, p6.ShipHi, p6.DiscLo, p6.DiscHi, p6.QtyMax)
	q3 := tpch.Q3HyPer(w.li, w.ord, w.cust, tpch.DefaultQ3Params())
	w.want = map[string]func(*queryResult) error{
		"q1": func(r *queryResult) error { return checkQ1(r, q1) },
		"q6": func(r *queryResult) error { return checkQ6(r, q6) },
		"q3": func(r *queryResult) error { return checkQ3(r, q3) },
	}
}

// request is one scheduled request with its reference check.
type request struct {
	class   string
	path    string
	body    []byte
	lambdas []lambdaSpec
	check   func(body []byte, r *queryResult) error
}

// schedule draws n requests, cycling through the mix.
func (w *serveMixed) schedule(n int, trace bool) ([]*request, error) {
	w.references()
	var out []*request
	for len(out) < n {
		for _, c := range serveCycle {
			r, err := w.newRequest(c, trace)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out[:n], nil
}

func (w *serveMixed) newRequest(class string, trace bool) (*request, error) {
	r := &request{class: class, path: "/v1/query"}
	var body map[string]any
	switch class {
	case "q1", "q6", "q3":
		body = map[string]any{"query": class}
		check := w.want[class]
		r.check = func(_ []byte, qr *queryResult) error { return check(qr) }
	case "q6r":
		lo := w.rng.Int63n(tpch.ShipdateMax - 365)
		disc := float64(1+w.rng.Intn(7)) / 100
		p := tpch.Q6Params{ShipLo: lo, ShipHi: lo + 365, DiscLo: disc, DiscHi: disc + 0.02, QtyMax: 20 + w.rng.Int63n(11)}
		body = map[string]any{"query": "q6", "params": map[string]float64{
			"ship_lo": float64(p.ShipLo), "ship_hi": float64(p.ShipHi),
			"disc_lo": p.DiscLo, "disc_hi": p.DiscHi, "qty_max": float64(p.QtyMax)}}
		want := tpch.Q6HyPer(w.li, p.ShipLo, p.ShipHi, p.DiscLo, p.DiscHi, p.QtyMax)
		r.check = func(_ []byte, qr *queryResult) error { return checkQ6(qr, want) }
		r.lambdas = q6Lambdas(p)
	case "adhoc":
		lo := w.rng.Int63n(tpch.ShipdateMax - 730)
		hi := lo + 365 + w.rng.Int63n(365)
		qmax := 10 + w.rng.Int63n(40)
		shipL := fmt.Sprintf(`(\d -> (d >= %d) && (d < %d))`, lo, hi)
		qtyL := fmt.Sprintf(`(\q -> q < %d)`, qmax)
		revL := `(\p d -> p * (1.0 - d))`
		body = map[string]any{
			"table":   "lineitem",
			"columns": []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
			"pipeline": []map[string]any{
				{"op": "filter", "lambda": shipL, "col": "l_shipdate"},
				{"op": "filter", "lambda": qtyL, "col": "l_quantity"},
				{"op": "compute", "out": "rev", "lambda": revL, "kind": "f64", "cols": []string{"l_extendedprice", "l_discount"}},
				{"op": "aggregate", "aggs": []map[string]string{{"func": "sum", "col": "rev", "as": "rev"}, {"func": "count", "as": "n"}}},
			},
		}
		wantRev, wantN := adhocRef(w.li, lo, hi, qmax)
		r.check = func(_ []byte, qr *queryResult) error {
			ri, ni := qr.col("rev"), qr.col("n")
			if ri < 0 || ni < 0 || len(qr.rows) != 1 {
				return fmt.Errorf("adhoc result: %d rows, columns %v", len(qr.rows), qr.cols)
			}
			if got := qr.rows[0][ni].I; got != wantN {
				return fmt.Errorf("count %d, want %d", got, wantN)
			}
			return nearRel(qr.rows[0][ri].F, wantRev)
		}
		r.lambdas = []lambdaSpec{
			{shipL, []string{"l_shipdate"}, []advm.Kind{advm.I64}, advm.Bool},
			{qtyL, []string{"l_quantity"}, []advm.Kind{advm.I64}, advm.Bool},
			{revL, []string{"l_extendedprice", "l_discount"}, []advm.Kind{advm.F64, advm.F64}, advm.F64},
		}
	case "exec":
		r.path = "/v1/exec"
		in := make([]int64, execRows)
		for i := range in {
			in[i] = w.rng.Int63n(2000) - 1000
		}
		body = map[string]any{"bindings": map[string]any{
			"d": map[string]any{"kind": "i64", "values": in},
			"o": map[string]any{"kind": "i64", "cap": execRows},
		}}
		// Half the executions address the program by fingerprint, half by
		// source (a prepared-cache hit on the server).
		if w.rng.Intn(2) == 0 {
			body["fingerprint"] = w.execFP
		} else {
			body["src"], body["externals"] = e2Src, map[string]string{"d": "i64", "o": "i64"}
		}
		want := e2Ref(in)
		r.check = func(b []byte, _ *queryResult) error { return checkExec(b, want) }
	case "prepare":
		r.path = "/v1/prepare"
		src := strings.Replace(e2Src, "x * 3 + 7", fmt.Sprintf("x * 3 + %d", 8+w.rng.Int63n(1<<40)), 1)
		body = map[string]any{"src": src, "externals": map[string]string{"d": "i64", "o": "i64"}}
		r.check = func(b []byte, _ *queryResult) error {
			var pr struct {
				Fingerprint string
				Cached      bool
			}
			if err := json.Unmarshal(b, &pr); err != nil {
				return err
			}
			if pr.Fingerprint == "" || pr.Cached {
				return fmt.Errorf("prepare of a new program: %s", b)
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("unknown request class %q", class)
	}
	if trace && r.path == "/v1/query" {
		body["trace"] = true
	}
	js, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	r.body = js
	return r, nil
}

// adhocRef answers the ad-hoc pipeline with a plain loop.
func adhocRef(li *vector.DSMStore, lo, hi, qmax int64) (float64, int64) {
	ship := li.Col(tpch.ColShipdate).I64()
	qty := li.Col(tpch.ColQuantity).I64()
	price := li.Col(tpch.ColExtendedprice).F64()
	disc := li.Col(tpch.ColDiscount).F64()
	var rev float64
	var n int64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && qty[i] < qmax {
			rev += price[i] * (1.0 - disc[i])
			n++
		}
	}
	return rev, n
}

func checkExec(body []byte, want []int64) error {
	var resp struct {
		Outputs map[string][]json.Number
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return err
	}
	got := resp.Outputs["o"]
	if len(got) != len(want) {
		return fmt.Errorf("exec output length %d, want %d", len(got), len(want))
	}
	for i, g := range got {
		x, err := g.Int64()
		if err != nil || x != want[i] {
			return fmt.Errorf("exec output[%d] = %s, want %d", i, g, want[i])
		}
	}
	return nil
}

// ndjsonResult decodes a /v1/query response: meta record, rows, trailer.
func ndjsonResult(body []byte) (*queryResult, *qtrace.SpanJSON, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var meta struct {
		Columns []string
		Kinds   []string
	}
	if err := dec.Decode(&meta); err != nil {
		return nil, nil, fmt.Errorf("meta record: %w", err)
	}
	qr := &queryResult{cols: meta.Columns}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, nil, fmt.Errorf("stream ended without a trailer: %w", err)
		}
		if len(raw) > 0 && raw[0] == '{' {
			var tr struct {
				Rows   int64
				Error  string
				Status int
				Trace  *qtrace.SpanJSON
			}
			if err := json.Unmarshal(raw, &tr); err != nil {
				return nil, nil, err
			}
			if tr.Error != "" {
				return nil, nil, fmt.Errorf("trailer error (status %d): %s", tr.Status, tr.Error)
			}
			if tr.Rows != int64(len(qr.rows)) {
				return nil, nil, fmt.Errorf("trailer counts %d rows, stream had %d", tr.Rows, len(qr.rows))
			}
			return qr, tr.Trace, nil
		}
		var vals []any
		rd := json.NewDecoder(bytes.NewReader(raw))
		rd.UseNumber()
		if err := rd.Decode(&vals); err != nil || len(vals) != len(meta.Kinds) {
			return nil, nil, fmt.Errorf("bad row %s", raw)
		}
		row := make([]advm.Value, len(vals))
		for i, v := range vals {
			switch x := v.(type) {
			case string:
				row[i] = advm.StrValue(x)
			case json.Number:
				if meta.Kinds[i] == "f64" {
					f, err := strconv.ParseFloat(string(x), 64)
					if err != nil {
						return nil, nil, err
					}
					row[i] = advm.F64Value(f)
				} else {
					n, err := x.Int64()
					if err != nil {
						return nil, nil, err
					}
					row[i] = advm.I64Value(n)
				}
			default:
				return nil, nil, fmt.Errorf("unexpected row value %v", v)
			}
		}
		qr.rows = append(qr.rows, row)
	}
}

// sent is one completed request of an open-loop phase.
type sent struct {
	r             *request
	due, start    time.Time
	done          time.Time
	err           error
	trace         *qtrace.SpanJSON
	rows          int  // result rows of a query
	wrong         bool // answered, but not with the reference result
	generatorLate time.Duration
}

// openLoop offers reqs at a fixed rate over serveConns connections. Each
// request is timed from its due time; the generator's own lateness (due to
// hand-off) is recorded separately. Responses are checked once the phase
// is over, so checking never delays a later request. Requests still
// unanswered five seconds after the last due time are abandoned and fail.
func (w *serveMixed) openLoop(ctx context.Context, rate float64, reqs []*request, tr *tracer) []*sent {
	jobs := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	out := make([]*sent, len(reqs))
	bodies := make([][]byte, len(reqs))
	t0 := time.Now().Add(20 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	lastDue := t0.Add(time.Duration(len(reqs)-1) * interval)
	ctx, cancel := context.WithDeadline(ctx, lastDue.Add(serveLimit+5*time.Second))
	defer cancel()

	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := out[i]
				s.start = time.Now()
				sp := tr.begin("http."+s.r.class, -1, int64(i))
				bodies[i], s.err = w.send(ctx, s.r)
				s.done = time.Now()
				tr.end(sp)
			}
		}()
	}
	for i, r := range reqs {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i] = &sent{r: r, due: due, generatorLate: time.Since(due)}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, s := range out {
		if s.err == nil {
			sp := tr.begin("verify."+s.r.class, -1, int64(i))
			s.trace, s.rows, s.err = verify(s.r, bodies[i])
			s.wrong = s.err != nil
			tr.end(sp)
		}
	}
	return out
}

func (w *serveMixed) send(ctx context.Context, r *request) ([]byte, error) {
	return w.call(ctx, http.MethodPost, r.path, r.body)
}

// verify checks a response body against the request's reference.
func verify(r *request, body []byte) (*qtrace.SpanJSON, int, error) {
	if r.path != "/v1/query" {
		return nil, 0, r.check(body, nil)
	}
	qr, trace, err := ndjsonResult(body)
	if err != nil {
		return nil, 0, err
	}
	return trace, len(qr.rows), r.check(body, qr)
}

// phase is the outcome of one open-loop phase.
type phase struct {
	ops    *opLog
	sent   []*sent
	lateMs []float64
	// growth is the least-squares slope of latency (from due time) over
	// due time, in seconds per second. Below capacity it stays near 0; above
	// it the backlog grows and latency with it, at (rate − capacity) ÷
	// capacity.
	growth float64
}

func summarize(sents []*sent) *phase {
	p := &phase{ops: &opLog{}, sent: sents}
	var xs, ys []float64
	for _, s := range sents {
		p.ops.attempted++
		p.lateMs = append(p.lateMs, float64(s.generatorLate)/1e6)
		if s.err != nil {
			p.ops.failed++
			p.ops.errs = append(p.ops.errs, fmt.Sprintf("%s: %v", s.r.class, s.err))
			continue
		}
		xs = append(xs, s.due.Sub(sents[0].due).Seconds())
		ys = append(ys, s.done.Sub(s.due).Seconds())
		p.ops.add(s.r.class, s.done.Sub(s.due))
	}
	p.growth = slope(xs, ys)
	return p
}

// throughput is the answered requests of a phase per second, from the
// first due time to the last answer.
func throughput(sents []*sent) float64 {
	var n int
	var last time.Time
	for _, s := range sents {
		if s.err == nil {
			n++
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	return ratio(float64(n), last.Sub(sents[0].due).Seconds())
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return ratio(sxy, sxx)
}

// runPhase schedules and offers rate·d requests.
func (w *serveMixed) runPhase(ctx context.Context, rate float64, d time.Duration, tr *tracer, trace bool) (*phase, error) {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	reqs, err := w.schedule(n, trace)
	if err != nil {
		return nil, err
	}
	p := summarize(w.openLoop(ctx, rate, reqs, tr))
	if late := quantile(p.lateMs, 0.9); late > float64(maxLateP90)/1e6 {
		return nil, fmt.Errorf("validity guard: load generator fell behind schedule (lateness p90 %.1f ms > %v)", late, maxLateP90)
	}
	return p, nil
}

// rungPasses: no failure, p90 within the limit, and no growing backlog.
func rungPasses(p *phase) bool {
	return p.ops.failed == 0 && p.growth <= maxGrowth && quantile(p.ops.allMs(), 0.9) <= float64(serveLimit)/1e6
}

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// saturate runs the mix closed-loop over serveConns connections for d and
// returns the completed requests per second: the capacity estimate the
// ladder starts from.
func (w *serveMixed) saturate(ctx context.Context, d time.Duration) (float64, error) {
	reqs, err := w.schedule(int(200*d.Seconds()), false)
	if err != nil {
		return 0, err
	}
	var next, done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				if _, err := w.send(ctx, reqs[i]); err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), nil
}

// ladder walks the fixed rungs one at a time from the highest one at or
// below the saturation estimate: up while rungs pass, down while they fail.
// It returns the throughput achieved on the highest passing rung (see
// throughput), a measurement rather than the rung's nominal rate.
// Overload failures only fail a rung, but a wrong answer on any rung is
// added to ops and fails the run.
func (w *serveMixed) ladder(ctx context.Context, budget time.Duration, ops *opLog) (float64, error) {
	deadline := time.Now().Add(budget)
	est, err := w.saturate(ctx, saturateFor)
	if err != nil {
		return 0, err
	}
	k := max(int(math.Floor(math.Log(est/ladderBase)/math.Log(ladderStep))), 0)
	pass, fail := -1, -1
	var achieved float64
	// Past the budget the walk may take maxExtraRungs more rungs to find
	// both sides of the limit, and always ends on a passing rung: failing
	// rungs step down to rung 0 at the latest.
	for extra := 0; pass < 0 || (fail < 0 && extra <= maxExtraRungs); {
		if !time.Now().Before(deadline) {
			extra++
		}
		rate := rungRate(k)
		dur := max(minRungDuration, time.Duration(float64(time.Second)*60/rate))
		p, err := w.runPhase(ctx, rate, dur, nil, false)
		if err != nil {
			return 0, err
		}
		ops.attempted += p.ops.attempted
		for _, s := range p.sent {
			if s.wrong {
				ops.fail("ladder %s: %v", s.r.class, s.err)
			}
		}
		ok := rungPasses(p)
		fmt.Printf("  rung %d (%.2f req/s): p90 %.1f ms, failed %d, latency growth %.3f s/s, pass %v\n",
			k, rate, quantile(p.ops.allMs(), 0.9), p.ops.failed, p.growth, ok)
		if ok {
			pass = k
			achieved = throughput(p.sent)
			k++
		} else {
			fail = k
			if k == 0 {
				break
			}
			k--
		}
		time.Sleep(100 * time.Millisecond) // let the server idle between rungs
	}
	fmt.Printf("serve-mixed: saturation estimate %.2f req/s; highest passing rung %d, lowest failing %d\n", est, pass, fail)
	if pass < 0 {
		return 0, errors.New("no ladder rung met the latency limit")
	}
	return achieved, nil
}

func (w *serveMixed) measure(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	fixed := time.Duration(float64(d) * latencyShare)
	s0, err := w.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	p, err := w.runPhase(ctx, serveFixedRate, fixed, nil, false)
	if err != nil {
		return nil, nil, err
	}
	s1, err := w.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	ms := p.ops.allMs()
	vals := map[string]float64{
		"latency_p50_ms": quantile(ms, 0.5),
		"latency_p90_ms": quantile(ms, 0.9),
	}
	fmt.Printf("serve-mixed: fixed rate %.1f req/s, achieved %.2f req/s, exec_p50_ms %.3f, generator lateness p90 %.3f ms\n",
		serveFixedRate, float64(len(ms))/fixed.Seconds(), p.ops.classP50("exec"), quantile(p.lateMs, 0.9))
	p.ops.reportErrs()
	maxRate, err := w.ladder(ctx, d-fixed, p.ops)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("serve-mixed: max_ops_per_s %.3f\n", maxRate)
	printMix(s0, s1, maxRate)
	vals["ops_per_s"] = maxRate
	return vals, p.ops, nil
}

// serverSnapshot is what the traced run reads from the server.
type serverSnapshot struct {
	stats struct {
		Engine struct {
			Prepares        int64 `json:"prepares"`
			CacheHits       int64 `json:"cache_hits"`
			ParallelQueries int64 `json:"parallel_queries"`
			TierUps         int64 `json:"tier_ups"`
			FusedCompiles   int64 `json:"fused_compiles"`
			FusedCacheHits  int64 `json:"fused_cache_hits"`
			FusedQueries    int64 `json:"fused_queries"`
			FusedDeopts     int64 `json:"fused_deopts"`
		} `json:"engine"`
		Admission struct {
			Admitted int64 `json:"admitted"`
			Rejected int64 `json:"rejected"`
		} `json:"admission"`
		Server struct {
			QueriesOK int64 `json:"queries_ok"`
		} `json:"server"`
		Tiers []struct {
			Fingerprint string `json:"fingerprint"`
			Execs       int64  `json:"execs"`
		} `json:"tiers"`
	}
	prom    map[string]float64 // sample line → value
	runtime runtimeSample
}

func (w *serveMixed) snapshot(ctx context.Context) (*serverSnapshot, error) {
	s := &serverSnapshot{prom: map[string]float64{}}
	body, err := w.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &s.stats); err != nil {
		return nil, err
	}
	body, err = w.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s.prom[line[:i]] = v
		}
	}
	body, err = w.get(ctx, "/perfbench/runtime")
	if err != nil {
		return nil, err
	}
	var rt []float64
	if err := json.Unmarshal(body, &rt); err != nil || len(rt) != 5 {
		return nil, fmt.Errorf("runtime sample %q: %v", body, err)
	}
	s.runtime = runtimeSample{rt[0], rt[1], rt[2], rt[3], rt[4]}
	return s, nil
}

// printMix reports what traffic the latency phase offered, measured by the
// server between snapshots a and b: the share of queries whose plan
// fingerprint the server had already run, the share that ran fused, the
// prepared-program cache's hits and misses, and the offered rate as a
// share of the measured capacity.
func printMix(a, b *serverSnapshot, capacity float64) {
	before := map[string]int64{}
	for _, t := range a.stats.Tiers {
		before[t.Fingerprint] = t.Execs
	}
	var execs, repeats int64
	for _, t := range b.stats.Tiers {
		n := t.Execs - before[t.Fingerprint]
		execs += n
		repeats += n
		if before[t.Fingerprint] == 0 && n > 0 {
			repeats-- // the first run of a new fingerprint
		}
	}
	ea, eb := a.stats.Engine, b.stats.Engine
	queries := float64(b.stats.Server.QueriesOK - a.stats.Server.QueriesOK)
	hits := eb.CacheHits - ea.CacheHits
	fmt.Printf("serve-mixed mix: %d queries, repeat-fingerprint share %.3f, fused share %.3f; prepared cache %d hits, %d misses; offered load %.1f req/s = %.3f of max_ops_per_s\n",
		execs, ratio(float64(repeats), float64(execs)), ratio(float64(eb.FusedQueries-ea.FusedQueries), queries),
		hits, eb.Prepares-ea.Prepares-hits, serveFixedRate, ratio(serveFixedRate, capacity))
}

// histQuantile estimates a quantile of the difference of two snapshots of
// a Prometheus histogram, interpolating within the bucket.
func histQuantile(a, b map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for key, v := range b {
		if !strings.HasPrefix(key, name+"_bucket{") {
			continue
		}
		i := strings.Index(key, `le="`)
		le := key[i+4 : strings.LastIndexByte(key, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			bound, _ = strconv.ParseFloat(le, 64)
		}
		bs = append(bs, bucket{bound, v - a[key]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	target := q * total
	prevLe, prevN := 0.0, 0.0
	for _, bk := range bs {
		if bk.n >= target {
			if math.IsInf(bk.le, 1) {
				return prevLe
			}
			if bk.n == prevN {
				return bk.le
			}
			return prevLe + (bk.le-prevLe)*(target-prevN)/(bk.n-prevN)
		}
		prevLe, prevN = bk.le, bk.n
	}
	return prevLe
}

func (w *serveMixed) traced(ctx context.Context, d time.Duration) (map[string]float64, *opLog, error) {
	vals := map[string]float64{"tpch.load_s": w.loadS}
	s0, err := w.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	// Each half offers at least one whole cycle, so every request class is
	// measured.
	half := max(d/2, time.Duration(float64(len(serveCycle))/serveFixedRate*float64(time.Second)))
	plain, err := w.runPhase(ctx, serveFixedRate, half, nil, false)
	if err != nil {
		return nil, nil, err
	}
	plain.ops.reportErrs()
	s1, err := w.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	runtimePerOp(vals, s0.runtime, s1.runtime, len(plain.ops.lat))
	classP50s(vals, plain.ops, "q1", "q6", "q3", "exec")
	vals["loadgen.late_ms_p90"] = quantile(plain.lateMs, 0.9)
	vals["server.admission_wait_ms"] = 1e3 * histQuantile(s0.prom, s1.prom, "advm_admission_wait_seconds", 0.9)
	// Server overhead: client time from send to last byte minus the
	// server's own query duration, per plan name.
	for _, c := range []string{"q1", "q6", "q3", "adhoc"} {
		var client []float64
		for _, s := range plain.sent {
			if s.err == nil && (s.r.class == c || (c == "q6" && s.r.class == "q6r")) {
				client = append(client, float64(s.done.Sub(s.start))/1e6)
			}
		}
		key := fmt.Sprintf(`advm_query_duration_seconds_%%s{query="%s"}`, c)
		sum := s1.prom[fmt.Sprintf(key, "sum")] - s0.prom[fmt.Sprintf(key, "sum")]
		cnt := s1.prom[fmt.Sprintf(key, "count")] - s0.prom[fmt.Sprintf(key, "count")]
		if cnt > 0 && len(client) > 0 {
			vals["server.overhead_ms."+c] = mean(client) - 1e3*sum/cnt
		}
	}

	tr := newTracer()
	traced, err := w.runPhase(ctx, serveFixedRate, half, tr, true)
	if err != nil {
		return nil, nil, err
	}
	traced.ops.reportErrs()
	s2, err := w.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	e0, e2 := s0.stats.Engine, s2.stats.Engine
	queries := float64(s2.stats.Server.QueriesOK - s0.stats.Server.QueriesOK)
	vals["advm.parallel_query_ratio"] = ratio(float64(e2.ParallelQueries-e0.ParallelQueries), queries)
	vals["advm.prepare_hit_ratio"] = ratio(float64(e2.CacheHits-e0.CacheHits), float64(e2.Prepares-e0.Prepares))
	vals["fused.fused_query_ratio"] = ratio(float64(e2.FusedQueries-e0.FusedQueries), queries)
	vals["fused.cache_hits"] = ratio(float64(e2.FusedCacheHits-e0.FusedCacheHits), queries)
	vals["fused.deopts"] = ratio(float64(e2.FusedDeopts-e0.FusedDeopts), queries)
	vals["fused.compiles"] = float64(e2.FusedCompiles)
	vals["fused.tier_ups"] = float64(e2.TierUps)
	a0, a2 := s0.stats.Admission, s2.stats.Admission
	vals["server.rejected_ratio"] = ratio(float64(a2.Rejected-a0.Rejected), float64(a2.Admitted-a0.Admitted+a2.Rejected-a0.Rejected))
	var execs, repeats int64
	for _, t := range s2.stats.Tiers {
		execs += t.Execs
		repeats += t.Execs - 1
	}
	vals["server.repeat_fingerprint_ratio"] = ratio(float64(repeats), float64(execs))
	var missUs []float64
	for _, s := range append(plain.sent, traced.sent...) {
		if s.r.class == "prepare" && s.err == nil {
			missUs = append(missUs, float64(s.done.Sub(s.start))/1e3)
		}
	}
	vals["advm.prepare_miss_us"] = median(missUs)
	vals["qtrace.overhead_ratio"] = overheadRatio(traced.ops, plain.ops)
	traceLayers(vals, traced.sent)

	var lambdas []lambdaSpec
	for _, s := range traced.sent {
		lambdas = append(lambdas, s.r.lambdas...)
	}
	if err := lowerLayers(vals, lambdas, []programSpec{{e2Src, e2Kinds}}, tr); err != nil {
		return nil, nil, err
	}
	microLayers(vals, w.cfg.nproc, tr)
	if err := tr.write(spanFile(w.cfg)); err != nil {
		return nil, nil, err
	}
	plain.ops.merge(traced.ops)
	return vals, plain.ops, nil
}

// traceLayers fills the engine/morsel/qtrace metrics from the span trees
// the server returned with traced queries.
func traceLayers(vals map[string]float64, sents []*sent) {
	self := map[string]map[string]float64{}
	classQueries := map[string]int{}
	var queries, morsels, steals int
	var selfNs, wallNs, busyNs, workerWall, scanned, rowsOut float64
	for _, s := range sents {
		if s.trace == nil || s.err != nil {
			continue
		}
		queries++
		rowsOut += float64(s.rows)
		class := s.r.class
		classQueries[class]++
		if self[class] == nil {
			self[class] = map[string]float64{}
		}
		root := s.trace
		wallNs += float64(root.DurNs)
		workers := 1.0
		if w, ok := root.Attrs["workers"].(float64); ok && w > 0 {
			workers = w
		}
		workerWall += float64(root.DurNs) * workers
		if st, ok := root.Attrs["steals"].(float64); ok {
			steals += int(st)
		}
		var walk func(n *qtrace.SpanJSON)
		walk = func(n *qtrace.SpanJSON) {
			switch n.Kind {
			case "op":
				self[class][n.Name] += float64(n.SelfNs)
				selfNs += float64(n.SelfNs)
				if n.Name == "scan" {
					if n.Rows > 0 {
						scanned += float64(n.Rows)
					} else if tr, ok := n.Attrs["table_rows"].(float64); ok {
						scanned += tr
					}
				}
			case "morsel":
				morsels++
				busyNs += float64(n.DurNs)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
	}
	if queries == 0 {
		return
	}
	for _, c := range engineOps {
		if classQueries[c.class] == 0 {
			continue
		}
		for _, op := range c.ops {
			vals["engine."+c.class+"."+op+".self_ms"] = self[c.class][op] / 1e6 / float64(classQueries[c.class])
		}
	}
	vals["engine.rows_scanned_per_row_out"] = ratio(scanned, rowsOut)
	vals["morsel.morsels_per_query"] = float64(morsels) / float64(queries)
	vals["morsel.steals_per_query"] = float64(steals) / float64(queries)
	vals["morsel.worker_busy_ratio"] = ratio(busyNs, workerWall)
	vals["qtrace.coverage_ratio"] = ratio(selfNs, wallNs)
}

func (w *serveMixed) peakRSSMB() float64 {
	return rssPeakMB(strconv.Itoa(w.cmd.Process.Pid))
}

// close stops the server child and waits for it.
func (w *serveMixed) close() {
	if w.cmd != nil && w.cmd.Process != nil {
		w.stdin.Close()
		done := make(chan struct{})
		go func() {
			_ = w.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = w.cmd.Process.Kill()
			<-done
		}
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	*w = serveMixed{}
}
