// Morsel-parallel query execution: the exchange operator of the paper's
// intra-query parallelism story ([15], morsel-driven parallelism). A table's
// row space is split into morsels dispatched dynamically to worker copies of
// a scan→filter/compute pipeline; the exchange re-emits the workers' chunks
// in table order, so everything downstream — including floating-point
// aggregation — observes exactly the row order of serial execution and
// produces bit-identical results.

package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/morsel"
	"repro/internal/qtrace"
	"repro/internal/vector"
)

// fanout is the worker half shared by the dispatching operators (Exchange,
// ParallelAgg, ParallelTopK and the parallel join build): one windowed scan
// leaf and one private pipeline per worker, driven morsel by morsel under
// work-stealing dispatch.
type fanout struct {
	traceHook
	store     vector.Store
	morselLen int
	leaves    []*PartScan
	pipes     []Operator
}

// newFanout instantiates workers private pipelines, mk building each one
// over its worker's scan leaf. Each worker gets private operator instances —
// and thus private expression VMs — so no cross-worker synchronization
// happens on the hot path.
func newFanout(store vector.Store, columns []string, workers int,
	mk func(worker int, leaf Operator) (Operator, error)) (fanout, error) {
	f := fanout{store: store, morselLen: morsel.DefaultMorselLen}
	for w := 0; w < workers; w++ {
		leaf, err := NewPartScan(store, columns...)
		if err != nil {
			return f, err
		}
		pipe, err := mk(w, leaf)
		if err != nil {
			return f, err
		}
		f.leaves = append(f.leaves, leaf)
		f.pipes = append(f.pipes, pipe)
	}
	return f, nil
}

// Workers returns the configured worker count.
func (f *fanout) Workers() int { return len(f.pipes) }

func (f *fanout) setChunkLen(n int) {
	for _, leaf := range f.leaves {
		leaf.SetChunkLen(n)
	}
}

func (f *fanout) setMorselLen(n int) {
	if n > 0 {
		f.morselLen = n
	}
}

// open disarms every scan leaf and opens every worker pipeline.
func (f *fanout) open(ctx context.Context) error {
	for w, pipe := range f.pipes {
		f.leaves[w].SetRange(0, 0)
		if err := pipe.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (f *fanout) closePipes() {
	for _, pipe := range f.pipes {
		pipe.Close()
	}
}

// run dispatches every morsel of the table to the worker pipelines and calls
// body once per morsel, on the worker that claimed it, with the morsel's
// dense sequence number and a drain that streams the armed morsel's chunks
// into a sink. A sink sees each chunk only until the pipeline's next Next
// (see Operator), so it folds or copies the chunk before returning. The
// first failed morsel's error is returned; morsels not yet started when a
// morsel fails are skipped.
func (f *fanout) run(ctx context.Context,
	body func(worker, seq int, drain func(sink func(*vector.Chunk)) error) error) (morsel.Stats, error) {
	rows, workers := f.store.Rows(), len(f.pipes)
	var mu sync.Mutex
	var runErr error
	var failed atomic.Bool
	st := morsel.RunInstrumented(rows, morsel.Options{Workers: workers, MorselLen: f.morselLen},
		func(worker, lo, hi int) {
			if failed.Load() {
				return
			}
			msp := f.startMorsel()
			pipe := f.pipes[worker]
			f.leaves[worker].SetRange(lo, hi)
			var out int64
			drain := func(sink func(*vector.Chunk)) error {
				return drainMorsel(ctx, pipe, lo, hi, func(c *vector.Chunk) {
					out += int64(c.SelectedLen())
					sink(c)
				})
			}
			if err := body(worker, lo/f.morselLen, drain); err != nil {
				msp.End()
				mu.Lock()
				if runErr == nil {
					runErr = err
				}
				mu.Unlock()
				failed.Store(true)
				return
			}
			finishMorsel(msp, pipe, worker, lo, hi, f.morselLen, rows, workers, out)
		})
	attachMorselStats(f.tsp, st)
	return st, runErr
}

// drainMorsel streams every chunk the armed morsel [lo, hi) produces from a
// worker pipeline into sink. A MorselRunner top (DeviceExec) executes the
// drain as one placed unit; anything else is drained inline on the calling
// worker.
func drainMorsel(ctx context.Context, pipe Operator, lo, hi int, sink func(*vector.Chunk)) error {
	if mr, ok := pipe.(MorselRunner); ok {
		return mr.RunMorsel(ctx, lo, hi, sink)
	}
	return drainInto(ctx, pipe, sink)
}

// drainInto pulls every remaining chunk of an open operator through sink.
func drainInto(ctx context.Context, op Operator, sink func(*vector.Chunk)) error {
	for {
		c, err := op.Next(ctx)
		if err != nil || c == nil {
			return err
		}
		sink(c)
	}
}

// exMorsel is one morsel's worth of finished chunks, tagged with the
// morsel's dense sequence number for order-preserving re-emission.
type exMorsel struct {
	seq    int
	chunks []*vector.Chunk
}

// exBatchMorsels is how many finished morsels a worker accumulates before
// one channel handoff to the merge. Batching amortizes the per-morsel
// send/receive (and the wakeups it causes) without changing the output: the
// merge orders by sequence number, not by arrival.
const exBatchMorsels = 4

// Exchange fans a scan→filter/compute pipeline out over worker copies fed by
// work-stealing morsel dispatch, and merges their output back into one
// ordered chunk stream. It is an Operator, so anything that consumes chunks
// — aggregations, joins, the public cursor — parallelizes transparently.
//
// Chunks are re-emitted in table order (morsel sequence order), which makes
// the merged stream byte-identical to a serial scan of the same pipeline:
// order-sensitive consumers such as floating-point SUM see the same addition
// order. Workers still absorb skew dynamically — stealing morsels from
// slower workers' ranges — and hand off finished morsels to the merge in
// batches; only the emission is sequenced.
type Exchange struct {
	fanout
	schema []ColInfo

	out      chan []exMorsel
	quit     chan struct{}
	quitOnce *sync.Once
	done     chan struct{}
	cancel   context.CancelFunc
	opened   bool

	mu     sync.Mutex
	runErr error
	stats  morsel.Stats

	pending map[int][]*vector.Chunk
	queue   []*vector.Chunk
	nextSeq int
}

// NewExchange builds an exchange over store with workers parallel pipelines.
// build is called once per worker with that worker's scan leaf and must
// return the pipeline to run on top of it (the leaf itself for a bare
// parallel scan).
func NewExchange(store vector.Store, columns []string, workers int,
	build func(worker int, leaf Operator) (Operator, error)) (*Exchange, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: exchange needs ≥ 1 worker, got %d", workers)
	}
	f, err := newFanout(store, columns, workers, build)
	if err != nil {
		return nil, err
	}
	return &Exchange{fanout: f, schema: f.pipes[0].Schema()}, nil
}

// SetChunkLen overrides the chunk length of every worker's scan leaf.
func (e *Exchange) SetChunkLen(n int) *Exchange {
	e.setChunkLen(n)
	return e
}

// SetMorselLen overrides the dispatch granularity (default
// morsel.DefaultMorselLen).
func (e *Exchange) SetMorselLen(n int) *Exchange {
	e.setMorselLen(n)
	return e
}

// Schema implements Operator.
func (e *Exchange) Schema() []ColInfo { return e.schema }

// Open implements Operator: it opens every worker pipeline and starts the
// morsel dispatcher.
func (e *Exchange) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := e.open(ctx); err != nil {
		return err
	}
	e.nextSeq = 0
	e.pending = make(map[int][]*vector.Chunk)
	e.queue = nil
	e.runErr = nil
	e.out = make(chan []exMorsel, e.Workers())
	e.quit = make(chan struct{})
	e.quitOnce = new(sync.Once)
	e.done = make(chan struct{})
	e.opened = true
	// The workers run under a private, cancellable context so Close can
	// abort them mid-morsel instead of waiting for their current drains.
	wctx, cancel := context.WithCancel(ctx)
	e.cancel = cancel
	go e.produce(wctx)
	return nil
}

// produce drives the morsel dispatch over the worker pipelines and feeds
// the ordered merge. It owns the out channel: closing it signals end of
// production.
func (e *Exchange) produce(ctx context.Context) {
	defer close(e.done)
	defer e.cancel() // release the private context once production ends
	// Per-worker handoff buffers: each worker batches up to exBatchMorsels
	// finished morsels per channel send. A buffer is owned by its worker
	// goroutine for the whole run, then flushed below after the run's
	// WaitGroup establishes happens-before.
	batches := make([][]exMorsel, e.Workers())
	send := func(batch []exMorsel) {
		select {
		case e.out <- batch:
		case <-e.quit:
		}
	}
	st, err := e.run(ctx, func(worker, seq int, drain func(func(*vector.Chunk)) error) error {
		// The merge emits a morsel's chunks long after the worker pipeline
		// has moved on, so each chunk is condensed into exchange-owned
		// storage as it arrives.
		var chunks []*vector.Chunk
		if err := drain(func(c *vector.Chunk) { chunks = append(chunks, c.Condense()) }); err != nil {
			return err
		}
		batches[worker] = append(batches[worker], exMorsel{seq: seq, chunks: chunks})
		if len(batches[worker]) >= exBatchMorsels {
			send(batches[worker])
			batches[worker] = nil
		}
		return nil
	})
	if err != nil {
		e.fail(err)
	}
	for _, batch := range batches {
		if len(batch) > 0 {
			send(batch)
		}
	}
	e.mu.Lock()
	e.stats = st
	e.mu.Unlock()
	close(e.out)
}

// fail records the first worker error and unblocks everyone.
func (e *Exchange) fail(err error) {
	e.mu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.mu.Unlock()
	e.quitOnce.Do(func() { close(e.quit) })
}

// Err returns the first worker error, if any.
func (e *Exchange) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runErr
}

// Next implements Operator: it returns the workers' chunks in morsel
// sequence order, buffering out-of-order completions. A worker error or a
// cancelled ctx surfaces here.
func (e *Exchange) Next(ctx context.Context) (*vector.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for {
		if len(e.queue) > 0 {
			c := e.queue[0]
			e.queue = e.queue[1:]
			return c, nil
		}
		batch, ok := <-e.out
		if !ok {
			return nil, e.Err()
		}
		for _, res := range batch {
			e.pending[res.seq] = res.chunks
		}
		for {
			chunks, ready := e.pending[e.nextSeq]
			if !ready {
				break
			}
			delete(e.pending, e.nextSeq)
			e.nextSeq++
			e.queue = append(e.queue, chunks...)
		}
	}
}

// Close implements Operator: it cancels the workers' private context (so
// drains in flight abort at their next chunk boundary rather than running
// their morsels to completion), stops the dispatcher (draining workers that
// are mid-push), waits for them to exit, and closes the worker pipelines.
// Safe to call without draining Next first, and idempotent.
func (e *Exchange) Close() error {
	if e.opened {
		e.opened = false
		e.cancel()
		e.quitOnce.Do(func() { close(e.quit) })
		for range e.out {
			// Discard: unblocks workers stuck pushing finished morsels.
		}
		<-e.done
	}
	e.closePipes()
	return nil
}

// MorselStats returns the dispatch statistics of the completed run (valid
// after the stream is drained or closed).
func (e *Exchange) MorselStats() morsel.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ---------------------------------------------------------------------------
// Parallel hash join: morsel-parallel partitioned build + shared read-only
// table probed by worker-private TableProbe operators inside the existing
// PartScan pipelines.

// SharedJoinTable is the once-per-query handle onto a join's build side: a
// recipe that materializes and hashes the build rows the first time any
// worker's probe opens, then serves the immutable JoinTable to every worker.
// The build-side output schema is known statically so probes stacked on top
// can resolve their own schemas before anything executes.
type SharedJoinTable struct {
	schema []ColInfo
	build  func(ctx context.Context) (*JoinTable, error)

	once sync.Once
	tbl  *JoinTable
	err  error
}

// NewSharedJoinTable wraps a build recipe. schema must be the build
// pipeline's output schema.
func NewSharedJoinTable(schema []ColInfo, build func(ctx context.Context) (*JoinTable, error)) *SharedJoinTable {
	return &SharedJoinTable{schema: schema, build: build}
}

// Schema returns the build side's output schema.
func (s *SharedJoinTable) Schema() []ColInfo { return s.schema }

// Table builds the join table on first call and returns it thereafter. A
// failed build (including a cancelled ctx) is cached: shared tables are
// per-query, so the query is aborted either way.
func (s *SharedJoinTable) Table(ctx context.Context) (*JoinTable, error) {
	s.once.Do(func() { s.tbl, s.err = s.build(ctx) })
	return s.tbl, s.err
}

// BuildJoinTableParallel materializes a build-side pipeline over dynamically
// dispatched morsels of its table and hashes the result into a partitioned
// JoinTable: every worker runs a private copy of the pipeline (built by mk
// over a windowed scan leaf), the per-morsel outputs are stitched back in
// morsel order — so the build rows, and therefore every multi-match list,
// are byte-identical to a serial materialization — and the partitions are
// then hashed concurrently, one partition per worker, without contention.
func BuildJoinTableParallel(ctx context.Context, store vector.Store, columns []string,
	workers, chunkLen, morselLen int, buildKey string,
	mk func(worker int, leaf Operator) (Operator, error)) (*JoinTable, error) {
	return BuildJoinTableParallelTraced(ctx, store, columns, workers, chunkLen, morselLen, buildKey, mk, nil, false)
}

// BuildJoinTableParallelTraced is BuildJoinTableParallel with tracing: when
// tsp is non-nil the run attaches its morsel statistics to it, and with
// traceMorsels additionally records one leaf span per build morsel.
func BuildJoinTableParallelTraced(ctx context.Context, store vector.Store, columns []string,
	workers, chunkLen, morselLen int, buildKey string,
	mk func(worker int, leaf Operator) (Operator, error),
	tsp *qtrace.Span, traceMorsels bool) (*JoinTable, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: parallel build needs ≥ 1 worker, got %d", workers)
	}
	if morselLen <= 0 {
		morselLen = morsel.DefaultMorselLen
	}
	// Cap the fan-out at the build side's morsel count: a tiny build table
	// gains nothing from surplus workers, and each one costs a full pipeline
	// (expression VMs included) plus an idle spin in the dispatcher. The cap
	// is result-invisible — stitching is keyed by morsel sequence, and the
	// partition count of the hashed table affects scheduling only.
	if nm := (store.Rows() + morselLen - 1) / morselLen; nm > 0 && workers > nm {
		workers = nm
	}
	f, err := newFanout(store, columns, workers, mk)
	if err != nil {
		return nil, err
	}
	if chunkLen > 0 {
		f.setChunkLen(chunkLen)
	}
	f.setMorselLen(morselLen)
	f.SetTrace(tsp, traceMorsels)
	defer f.closePipes()
	if err := f.open(ctx); err != nil {
		return nil, err
	}

	// Build rows outlive the worker pipelines' next Next, so each chunk is
	// condensed into build-owned storage; distinct morsels write distinct
	// slots, so no lock is needed.
	results := make([][]*vector.Chunk, (store.Rows()+morselLen-1)/morselLen)
	if _, err := f.run(ctx, func(_, seq int, drain func(func(*vector.Chunk)) error) error {
		var chunks []*vector.Chunk
		if err := drain(func(c *vector.Chunk) { chunks = append(chunks, c.Condense()) }); err != nil {
			return err
		}
		results[seq] = chunks
		return nil
	}); err != nil {
		return nil, err
	}

	// Stitch the morsel outputs back in table order.
	sch := storeSchema(f.pipes[0].Schema())
	out := vector.NewDSMStore(sch)
	for _, chunks := range results {
		for _, c := range chunks {
			out.AppendChunk(projectTo(c, sch.Names))
		}
	}
	return newPartitionedJoinTable(out, buildKey, workers)
}

// newPartitionedJoinTable hashes rows into a power-of-two number of
// partitions ≥ workers in two parallel passes: each worker scatters a
// contiguous key range into per-(worker, partition) row lists — hashing
// every key exactly once — and each partition then concatenates its lists
// in worker order (contiguous ranges, so concatenation preserves build
// order) while inserting into its private map. The partition count affects
// scheduling only, never results.
func newPartitionedJoinTable(rows *vector.DSMStore, buildKey string, workers int) (*JoinTable, error) {
	t, err := newJoinTableHeader(rows, buildKey)
	if err != nil {
		return nil, err
	}
	nparts := 1
	for nparts < workers {
		nparts *= 2
	}
	t.mask = uint64(nparts - 1)
	t.parts = make([]map[int64][]int32, nparts)
	t.blooms = make([]*BloomFilter, nparts)
	keys := rows.Col(t.keyIdx).I64()

	// Pass 1: scatter. Worker w owns rows [w·n/W, (w+1)·n/W).
	scattered := make([][][]int32, workers) // [worker][partition][]row
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := len(keys)*w/workers, len(keys)*(w+1)/workers
			lists := make([][]int32, nparts)
			for i := lo; i < hi; i++ {
				p := t.part(keys[i])
				lists[p] = append(lists[p], int32(i))
			}
			scattered[w] = lists
		}(w)
	}
	wg.Wait()

	// Pass 2: per-partition map build over the worker lists in worker order.
	for p := 0; p < nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n := 0
			for w := 0; w < workers; w++ {
				n += len(scattered[w][p])
			}
			m := make(map[int64][]int32, n)
			bl := NewBloomFilter(maxi(n, 64))
			for w := 0; w < workers; w++ {
				for _, i := range scattered[w][p] {
					k := keys[i]
					m[k] = append(m[k], i)
					bl.Add(k)
				}
			}
			t.parts[p] = m
			t.blooms[p] = bl
		}(p)
	}
	wg.Wait()
	return t, nil
}

// TableProbe streams probe chunks against a shared read-only JoinTable: the
// worker-side half of the parallel hash join. Many TableProbe instances (one
// per exchange worker) share one SharedJoinTable; each keeps a private
// adaptive-Bloom state so nothing synchronizes per chunk. Output rows match
// the serial HashJoin byte for byte: probe rows in probe order, match lists
// in build order.
type TableProbe struct {
	child    Operator
	shared   *SharedJoinTable
	probeKey string
	payload  []string
	probeCore

	tbl     *JoinTable
	schema  []ColInfo
	payIdx  []int
	keyIdxP int
}

// NewTableProbe builds a probe over child against shared. The schema — child
// columns then payload columns — resolves eagerly, so probes compose under
// exchanges and further probes before anything opens.
func NewTableProbe(child Operator, shared *SharedJoinTable, probeKey string, payload ...string) (*TableProbe, error) {
	p := &TableProbe{
		child: child, shared: shared, probeKey: probeKey, payload: payload,
		probeCore: newProbeCore(),
	}
	p.schema = append(p.schema, child.Schema()...)
	for _, pay := range payload {
		kind := vector.Invalid
		for _, ci := range shared.Schema() {
			if ci.Name == pay {
				kind = ci.Kind
				break
			}
		}
		if kind == vector.Invalid {
			return nil, fmt.Errorf("engine: payload column %q missing from build side", pay)
		}
		p.schema = append(p.schema, ColInfo{Name: pay, Kind: kind})
	}
	var err error
	if p.keyIdxP, err = resolveProbeKey(child.Schema(), probeKey); err != nil {
		return nil, err
	}
	return p, nil
}

// SetBloom fixes the Bloom flavor (default adaptive).
func (p *TableProbe) SetBloom(m BloomMode) *TableProbe { p.mode = m; return p }

// Schema implements Operator.
func (p *TableProbe) Schema() []ColInfo { return p.schema }

// Open implements Operator: the first probe to open triggers the shared
// build; the rest attach to the finished table.
func (p *TableProbe) Open(ctx context.Context) error {
	if err := p.child.Open(ctx); err != nil {
		return err
	}
	tbl, err := p.shared.Table(ctx)
	if err != nil {
		return err
	}
	p.tbl = tbl
	if p.payIdx, err = resolvePayload(tbl.Rows().Schema(), p.payload); err != nil {
		return err
	}
	return nil
}

// Next implements Operator.
func (p *TableProbe) Next(ctx context.Context) (*vector.Chunk, error) {
	for {
		chunk, err := p.child.Next(ctx)
		if err != nil || chunk == nil {
			return chunk, err
		}
		cc := chunk
		if chunk.Sel() != nil {
			cc = chunk.Condense()
		}
		probeIdx, buildIdx := p.probeKeys(p.tbl, cc.Col(p.keyIdxP).I64())
		if len(probeIdx) == 0 {
			continue
		}
		return joinEmit(cc, p.tbl.Rows(), p.payload, p.payIdx, probeIdx, buildIdx), nil
	}
}

// Close implements Operator (the shared table is owned by the query, not the
// probe).
func (p *TableProbe) Close() error { return p.child.Close() }

// ---------------------------------------------------------------------------
// Parallel grouped aggregation: per-morsel pre-aggregation tables merged in
// morsel sequence order.

// ParallelAgg is a morsel-parallel grouped aggregation: worker pipelines
// (scan→filter/compute/probe chains over windowed scans) process morsels
// concurrently under work-stealing dispatch, each morsel folding its rows —
// in row order — into a private pre-aggregation table slotted by the
// morsel's dense sequence number. When the run completes, the tables merge
// pairwise in a sequence-ordered tree, so every group's accumulation order is
// fully determined by the data and the morsel length: which worker ran a
// morsel, how many workers there were, and how steals interleaved all
// cancel out.
//
// The result is therefore byte-identical at every worker count (including
// 1), device policy and execution tier — floating-point sums included. The
// one knob that participates in result identity is the morsel length: a
// group spanning several morsels accumulates blockwise, and f64 addition is
// not associative, so different morsel lengths may legitimately differ in
// low-order float bits. A table no longer than one morsel degenerates to
// the strict row-order fold.
type ParallelAgg struct {
	fanout
	keys   []string
	aggs   []Aggregate
	schema []ColInfo

	out     *vector.Chunk
	emitted bool
	stats   morsel.Stats
}

// NewParallelAgg builds a parallel aggregation over store with workers
// pipelines; mk instantiates each worker's private pipeline over its scan
// leaf (the leaf itself for aggregation straight over a scan).
func NewParallelAgg(store vector.Store, columns []string, workers int,
	mk func(worker int, leaf Operator) (Operator, error),
	keys []string, aggs []Aggregate) (*ParallelAgg, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: parallel aggregation needs ≥ 1 worker, got %d", workers)
	}
	f, err := newFanout(store, columns, workers, mk)
	if err != nil {
		return nil, err
	}
	a := &ParallelAgg{fanout: f, keys: keys, aggs: aggs}
	sch, err := AggOutputSchema(a.pipes[0].Schema(), keys, aggs)
	if err != nil {
		return nil, err
	}
	a.schema = sch
	return a, nil
}

// SetChunkLen overrides the chunk length of every worker's scan leaf.
func (a *ParallelAgg) SetChunkLen(n int) *ParallelAgg {
	a.setChunkLen(n)
	return a
}

// SetMorselLen overrides the dispatch granularity.
func (a *ParallelAgg) SetMorselLen(n int) *ParallelAgg {
	a.setMorselLen(n)
	return a
}

// Schema implements Operator.
func (a *ParallelAgg) Schema() []ColInfo { return a.schema }

// Open implements Operator.
func (a *ParallelAgg) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := a.open(ctx); err != nil {
		return err
	}
	a.emitted = false
	a.out = nil
	return nil
}

// Next implements Operator: the first call runs the whole parallel
// aggregation synchronously and emits the single result chunk.
func (a *ParallelAgg) Next(ctx context.Context) (*vector.Chunk, error) {
	if a.emitted {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.emitted = true

	// One pre-aggregation table per morsel, slotted by sequence number. A
	// morsel's slot is written by exactly one worker (the dispatcher claims
	// each morsel exactly once) and read only after the run completes, so the
	// slice needs no locking. Each chunk is folded — in row order, through
	// its selection — before the pipeline produces the next one, so nothing
	// is copied.
	tables := make([]*aggTable, (a.store.Rows()+a.morselLen-1)/a.morselLen)
	hint := a.tableHint()
	var err error
	a.stats, err = a.run(ctx, func(_, seq int, drain func(func(*vector.Chunk)) error) error {
		tbl := newAggTableSized(a.keys, a.aggs, hint)
		if err := drain(tbl.absorb); err != nil {
			return err
		}
		tables[seq] = tbl
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge the per-morsel tables in a sequence-ordered pairwise tree — each
	// merge's right operand holds strictly later rows than its left — and
	// emit in key order.
	final := mergeAggTables(tables, a.Workers(), a.keys, a.aggs)
	a.out = emitAggChunk(a.schema, a.keys, a.aggs, final)
	final.release()
	return a.out, nil
}

// DistinctEstimator is implemented by stores whose metadata carries
// per-column distinct-value estimates (the colstore's zone maps).
// ParallelAgg uses them to pre-size per-morsel group tables; an estimate of
// 0 means "unknown".
type DistinctEstimator interface {
	DistinctEstimate(col string) int
}

// tableHint estimates the group count of one morsel's pre-aggregation table:
// the largest zone-map distinct estimate across the group-key columns,
// capped at the morsel length (a morsel cannot hold more groups than rows).
// 0 when the store has no estimates or a key is not a stored column (e.g.
// computed downstream of the scan).
func (a *ParallelAgg) tableHint() int {
	de, ok := a.store.(DistinctEstimator)
	if !ok {
		return 0
	}
	hint := 0
	for _, k := range a.keys {
		d := de.DistinctEstimate(k)
		if d <= 0 {
			return 0
		}
		if d > hint {
			hint = d
		}
	}
	if hint > a.morselLen {
		hint = a.morselLen
	}
	return hint
}

// mergeAggTables folds the per-morsel tables into one with a pairwise,
// sequence-ordered reduction tree: every round merges table 2i+1 into table
// 2i (an odd tail carries over), so each merge's right operand still holds
// strictly later rows than its left and the combined first-seen order — and
// therefore the floating-point accumulation order per group — is identical
// to the serial left-to-right fold's group order. The tree's shape depends
// only on the morsel count, never on workers, keeping result bytes a
// function of (plan, data, morsel length); rounds with several pairs run
// them concurrently since pairs touch disjoint tables. Merged-away tables
// are released to the pool; the caller owns (and releases) the survivor.
func mergeAggTables(tables []*aggTable, workers int, keys []string, aggs []Aggregate) *aggTable {
	live := make([]*aggTable, 0, len(tables))
	for _, t := range tables {
		if t != nil {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return newAggTable(keys, aggs)
	}
	for len(live) > 1 {
		pairs := len(live) / 2
		mergePair := func(i int) {
			live[2*i].merge(live[2*i+1])
			live[2*i+1].release()
		}
		if workers > 1 && pairs > 1 {
			var wg sync.WaitGroup
			for i := 0; i < pairs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					mergePair(i)
				}(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < pairs; i++ {
				mergePair(i)
			}
		}
		next := make([]*aggTable, 0, (len(live)+1)/2)
		for i := 0; i < len(live); i += 2 {
			next = append(next, live[i])
		}
		live = next
	}
	return live[0]
}

// Close implements Operator.
func (a *ParallelAgg) Close() error {
	a.closePipes()
	return nil
}

// MorselStats returns the dispatch statistics of the completed run.
func (a *ParallelAgg) MorselStats() morsel.Stats { return a.stats }
