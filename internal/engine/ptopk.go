// Morsel-parallel top-k: per-morsel candidate selection merged in morsel
// sequence order, mirroring ParallelAgg's private-table shape.

package engine

import (
	"context"
	"fmt"

	"repro/internal/morsel"
	"repro/internal/vector"
)

// ParallelTopK is a morsel-parallel top-k over a streaming pipeline: worker
// pipelines process morsels concurrently under work-stealing dispatch, each
// morsel reducing its own output — with exactly the serial operator's stable
// sort — to at most k candidate rows slotted by the morsel's dense sequence
// number. When the run completes, the candidates are concatenated in
// sequence order and the same stable sort picks the global top k.
//
// Determinism: a row of the global stable top-k is necessarily in the stable
// top-k of its own morsel — if k rows of the same morsel order before it,
// those k rows order before it globally too, and a stable sort cannot
// reorder rows of one morsel relative to each other. Candidate selection
// therefore never drops a winner. The sequence-ordered concatenation
// restores table order across morsels, so the final stable sort resolves
// ties exactly as the serial sort over the full input: in table order. There
// is no arithmetic anywhere in the fold, so — unlike aggregation — not even
// the morsel length participates: result bytes equal the serial TopK's at
// every worker count, chunk length and morsel length.
type ParallelTopK struct {
	fanout
	k      int
	by     []OrderSpec
	schema []ColInfo

	out     *vector.Chunk
	emitted bool
	stats   morsel.Stats
}

// NewParallelTopK builds a parallel top-k over store with workers pipelines;
// mk instantiates each worker's private pipeline over its scan leaf (the
// leaf itself for a top-k straight over a scan).
func NewParallelTopK(store vector.Store, columns []string, workers int,
	mk func(worker int, leaf Operator) (Operator, error),
	k int, by ...OrderSpec) (*ParallelTopK, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: parallel top-k needs ≥ 1 worker, got %d", workers)
	}
	if k <= 0 {
		return nil, fmt.Errorf("engine: top-k needs k ≥ 1, got %d", k)
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("engine: top-k needs at least one order column")
	}
	f, err := newFanout(store, columns, workers, mk)
	if err != nil {
		return nil, err
	}
	t := &ParallelTopK{fanout: f, k: k, by: by, schema: f.pipes[0].Schema()}
	for _, o := range by {
		found := false
		for _, ci := range t.schema {
			if ci.Name == o.Col {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("engine: top-k order column %q not produced by child", o.Col)
		}
	}
	return t, nil
}

// SetChunkLen overrides the chunk length of every worker's scan leaf.
func (t *ParallelTopK) SetChunkLen(n int) *ParallelTopK {
	t.setChunkLen(n)
	return t
}

// SetMorselLen overrides the dispatch granularity.
func (t *ParallelTopK) SetMorselLen(n int) *ParallelTopK {
	t.setMorselLen(n)
	return t
}

// Schema implements Operator.
func (t *ParallelTopK) Schema() []ColInfo { return t.schema }

// Open implements Operator.
func (t *ParallelTopK) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := t.open(ctx); err != nil {
		return err
	}
	t.emitted = false
	t.out = nil
	return nil
}

// storeSchema converts the operator schema into a vector.Schema.
func storeSchema(schema []ColInfo) vector.Schema {
	sch := vector.Schema{}
	for _, ci := range schema {
		sch.Names = append(sch.Names, ci.Name)
		sch.Kinds = append(sch.Kinds, ci.Kind)
	}
	return sch
}

// Next implements Operator: the first call runs the whole parallel top-k
// synchronously and emits the single result chunk.
func (t *ParallelTopK) Next(ctx context.Context) (*vector.Chunk, error) {
	if t.emitted {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.emitted = true

	sch := storeSchema(t.schema)
	// At most one candidate chunk (≤ k rows) per morsel, slotted by sequence
	// number: written by exactly one worker, read after the run completes.
	// Appending to the morsel's local store copies each chunk before the
	// pipeline produces the next one.
	cands := make([]*vector.Chunk, (t.store.Rows()+t.morselLen-1)/t.morselLen)
	var err error
	t.stats, err = t.run(ctx, func(_, seq int, drain func(func(*vector.Chunk)) error) error {
		local := vector.NewDSMStore(sch)
		if err := drain(func(c *vector.Chunk) { local.AppendChunk(projectTo(c, sch.Names)) }); err != nil {
			return err
		}
		if local.Rows() > 0 {
			cands[seq] = topKSelect(local, t.schema, t.k, t.by)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Concatenate the candidates in morsel sequence order — restoring table
	// order across morsels — and reduce with the same stable sort.
	all := vector.NewDSMStore(sch)
	for _, c := range cands {
		if c != nil {
			all.AppendChunk(c)
		}
	}
	t.out = topKSelect(all, t.schema, t.k, t.by)
	return t.out, nil
}

// Close implements Operator.
func (t *ParallelTopK) Close() error {
	t.closePipes()
	return nil
}

// MorselStats returns the dispatch statistics of the completed run.
func (t *ParallelTopK) MorselStats() morsel.Stats { return t.stats }
