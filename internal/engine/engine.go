// Package engine is the relational layer on top of the adaptive VM: a
// chunk-at-a-time operator pipeline (scan, compute, filter, hash join, hash
// aggregation) in which scalar expressions and predicates are written in the
// DSL, lowered through the normalizer and executed by the VM — so hot
// expressions JIT-compile into fused traces exactly as §III prescribes,
// while the operators themselves host the workload-specific optimizations
// of §III-C: full-vs-selective predicate evaluation, Bloom filters in
// selective hash joins, adaptive pre-aggregation, and on-the-fly reordering
// of selective operators.
//
// Concurrency contract: a single Operator instance is single-goroutine —
// Open, Next and Close are never called concurrently. Parallelism enters
// through the dispatching operators (Exchange, ParallelAgg,
// BuildJoinTableParallel), which instantiate one private pipeline per worker
// over a windowed scan and run them under work-stealing morsel dispatch
// (package morsel); worker pipelines share nothing mutable except
// read-only inputs — the table store, SharedJoinTable builds and cached
// fused programs. Determinism is structural, not scheduled: exchanges emit
// chunks in morsel sequence order and parallel aggregation folds per-morsel
// pre-aggregation tables in morsel sequence order, so result bytes depend
// on the morsel length (which pins how f64 accumulation is blocked) but
// never on worker count, steal pattern, device placement or chunk length.
//
// Chunk-lifetime contract: a chunk returned by Next — its header, vectors
// and selection vector — stays valid until the next Next or Close on the
// same operator, and no longer. Producers recycle their buffers: scans over
// an in-RAM DSM table hand out views of the table's columns (zero copy),
// scans over other stores decode into per-leaf buffers reused chunk to
// chunk, and fused loops recycle their computed columns, gathers and
// selection vectors. Consumers treat received chunks as read-only, since
// they may alias the stored table, and any consumer that keeps rows past
// its producer's next Next copies them: Collect and the top-k
// materializations append into a fresh store, the exchange condenses each
// chunk into its per-morsel buffer, and the parallel join build condenses
// its build rows. Aggregations fold a chunk before pulling the next one, so
// they copy nothing.
package engine

import (
	"context"
	"fmt"

	"repro/internal/vector"
)

// ColInfo describes one output column of an operator.
type ColInfo struct {
	Name string
	Kind vector.Kind
}

// Operator is a chunk-at-a-time relational operator (Volcano-style but
// vectorized: Next returns a chunk, not a tuple). Open and Next carry a
// context so long-running pipelines honor cancellation and deadlines at
// chunk granularity: leaf operators check ctx on every chunk they produce,
// and pipeline breakers (joins, aggregations) check it while materializing.
type Operator interface {
	// Schema returns the operator's output columns.
	Schema() []ColInfo
	// Open prepares execution (builds hash tables etc.).
	Open(ctx context.Context) error
	// Next returns the next chunk, or nil at end of stream. The chunk is
	// valid until the next Next or Close on the same operator: producers
	// reuse its storage, so a caller that keeps rows longer must copy them
	// (Chunk.Condense, DSMStore.AppendChunk). Callers must not write
	// through it — its vectors may be views of a stored table.
	Next(ctx context.Context) (*vector.Chunk, error)
	// Close releases resources.
	Close() error
}

// RangeSkipper is implemented by stores that can prove whole row windows
// irrelevant to the running query (zone-map pruning over pushed-down filter
// intervals). SkipRange(lo, hi) == true licenses the scan to drop rows
// [lo, hi) without reading them: every one of them would have been dropped
// by a filter that still executes downstream. Scans advance their position
// over skipped windows exactly as over produced ones, so chunk boundaries —
// and therefore every order-sensitive result — match the unskipped run.
type RangeSkipper interface {
	SkipRange(lo, hi int) bool
}

// Scan reads a stored table chunk-at-a-time: a PartScan whose window is the
// whole table, re-armed on every Open.
type Scan struct{ PartScan }

// NewScan creates a scan over the named columns of store.
func NewScan(store vector.Store, columns ...string) (*Scan, error) {
	ps, err := NewPartScan(store, columns...)
	if err != nil {
		return nil, err
	}
	return &Scan{PartScan: *ps}, nil
}

// SetChunkLen overrides the scan's chunk length (default
// vector.DefaultChunkLen).
func (s *Scan) SetChunkLen(n int) *Scan {
	s.PartScan.SetChunkLen(n)
	return s
}

// Open implements Operator: it rewinds the scan to the table's first row.
func (s *Scan) Open(ctx context.Context) error {
	s.SetRange(0, s.store.Rows())
	return ctx.Err()
}

// PartScan is a table scan restricted to a settable row window [lo, hi).
// The exchange resets the window once per dispatched morsel, so one PartScan
// serves a whole worker pipeline for the lifetime of a query.
//
// Next follows the chunk-lifetime contract (see Operator) and allocates
// nothing in the steady state: over an in-RAM *vector.DSMStore the chunk's
// vectors are views of the table's columns and no row is copied; over any
// other store (colstore, NSM) rows are decoded into per-leaf buffers reused
// across calls. The chunk and vector headers are reused too.
type PartScan struct {
	store    vector.Store
	dsm      *vector.DSMStore // non-nil: chunks are views of its columns
	skipper  RangeSkipper
	cols     []int
	schema   []ColInfo
	chunkLen int
	pos, hi  int

	vecs  []*vector.Vector // view headers or decode buffers, one per column
	chunk vector.Chunk     // the header every Next refills
}

// NewPartScan creates a windowed scan over the named columns of store (all
// columns when none are given). The window starts empty; SetRange arms it.
func NewPartScan(store vector.Store, columns ...string) (*PartScan, error) {
	cols, schema, err := resolveColumns(store, columns)
	if err != nil {
		return nil, err
	}
	s := &PartScan{store: store, chunkLen: vector.DefaultChunkLen, cols: cols, schema: schema}
	s.dsm, _ = store.(*vector.DSMStore)
	s.skipper, _ = store.(RangeSkipper)
	return s, nil
}

// resolveColumns maps column names (all columns when none are given) onto
// store indexes and the corresponding output schema.
func resolveColumns(store vector.Store, columns []string) ([]int, []ColInfo, error) {
	sch := store.Schema()
	if len(columns) == 0 {
		columns = sch.Names
	}
	cols := make([]int, 0, len(columns))
	schema := make([]ColInfo, 0, len(columns))
	for _, name := range columns {
		idx := sch.ColumnIndex(name)
		if idx < 0 {
			return nil, nil, fmt.Errorf("engine: scan column %q not in schema %v", name, sch.Names)
		}
		cols = append(cols, idx)
		schema = append(schema, ColInfo{Name: name, Kind: sch.Kinds[idx]})
	}
	return cols, schema, nil
}

// SetChunkLen overrides the scan's chunk length (default
// vector.DefaultChunkLen).
func (s *PartScan) SetChunkLen(n int) *PartScan {
	if n > 0 {
		s.chunkLen = n
	}
	return s
}

// SetRange arms the scan to produce rows [lo, hi).
func (s *PartScan) SetRange(lo, hi int) {
	s.pos, s.hi = lo, hi
}

// Schema implements Operator.
func (s *PartScan) Schema() []ColInfo { return s.schema }

// Open implements Operator. It does not reset the window: ranges are owned
// by SetRange callers.
func (s *PartScan) Open(ctx context.Context) error { return ctx.Err() }

// Next implements Operator. As the pipeline's leaf it checks ctx once per
// chunk, which bounds how far past a cancellation any downstream operator
// can run. Windows the store's RangeSkipper proves irrelevant are stepped
// over in whole chunks, so chunk boundaries match the unskipped scan.
func (s *PartScan) Next(ctx context.Context) (*vector.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.skipper != nil {
		for s.pos < s.hi {
			hi := s.pos + s.chunkLen
			if hi > s.hi {
				hi = s.hi
			}
			if !s.skipper.SkipRange(s.pos, hi) {
				break
			}
			s.pos = hi
		}
	}
	n := s.hi - s.pos
	if n <= 0 {
		return nil, nil
	}
	if n > s.chunkLen {
		n = s.chunkLen
	}
	if s.vecs == nil {
		s.vecs = make([]*vector.Vector, len(s.cols))
		for i, info := range s.schema {
			if s.dsm != nil {
				s.vecs[i] = new(vector.Vector)
			} else {
				s.vecs[i] = vector.New(info.Kind, 0, s.chunkLen)
			}
		}
	}
	var got int
	if s.dsm != nil {
		got = s.dsm.View(s.pos, n, s.cols, s.vecs)
	} else {
		got = s.store.Scan(s.pos, n, s.cols, s.vecs)
	}
	if got == 0 {
		return nil, nil
	}
	s.pos += got
	s.chunk.Reset()
	for i, info := range s.schema {
		s.chunk.Add(info.Name, s.vecs[i])
	}
	return &s.chunk, nil
}

// Close implements Operator.
func (s *PartScan) Close() error { return nil }

// Drain pulls every chunk of op through fn.
func Drain(ctx context.Context, op Operator, fn func(*vector.Chunk) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	defer op.Close()
	for {
		c, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if c == nil {
			return nil
		}
		if err := fn(c); err != nil {
			return err
		}
	}
}

// Collect materializes an operator's full output into a DSM store. The
// schema is read after Open, since pipeline breakers (joins, aggregations)
// resolve their output schema there.
func Collect(ctx context.Context, op Operator) (*vector.DSMStore, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	return collectOpen(ctx, op)
}

// collectOpen materializes the remaining output of an already-open operator.
func collectOpen(ctx context.Context, op Operator) (*vector.DSMStore, error) {
	sch := storeSchema(op.Schema())
	out := vector.NewDSMStore(sch)
	for {
		c, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return out, nil
		}
		out.AppendChunk(projectTo(c, sch.Names))
	}
}

func projectTo(c *vector.Chunk, names []string) *vector.Chunk {
	out := vector.NewChunk()
	for _, name := range names {
		out.Add(name, c.MustColumn(name))
	}
	out.SetSel(c.Sel())
	return out
}

// CountRows counts the (selected) rows an operator produces.
func CountRows(ctx context.Context, op Operator) (int64, error) {
	var n int64
	err := Drain(ctx, op, func(c *vector.Chunk) error {
		n += int64(c.SelectedLen())
		return nil
	})
	return n, err
}
