package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/profile"
	"repro/internal/vector"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota + 1
	AggCount
	AggMin
	AggMax
	AggAvg
	// AggFirst carries the first value of the column seen for each group (in
	// input order). It accepts any column kind, including strings, and is the
	// canonical way to carry columns that are functionally dependent on the
	// group keys (e.g. o_orderdate per l_orderkey in TPC-H Q3).
	AggFirst
)

var aggNames = [...]string{0: "?", AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max", AggAvg: "avg", AggFirst: "first"}

func (a AggFunc) String() string { return aggNames[a] }

// Aggregate describes one aggregate column.
type Aggregate struct {
	Func AggFunc
	Col  string // input column ("" for count)
	As   string // output name
}

// PreAggMode controls the adaptively triggered pre-aggregation of [12]: a
// small cache-resident table absorbs per-chunk group locality before rows
// reach the global table.
type PreAggMode int

// Pre-aggregation flavors.
const (
	PreAggAdaptive PreAggMode = iota
	PreAggOn
	PreAggOff
)

// preAggSlots is the size of the cache-resident pre-aggregation table.
const preAggSlots = 512

// preAggThreshold is the pre-agg hit rate below which the flavor is
// disabled (high-cardinality uniform keys make it pure overhead).
const preAggThreshold = 0.5

type aggState struct {
	key    groupKey
	counts []int64
	sumsI  []int64
	sumsF  []float64
	minsI  []int64
	maxsI  []int64
	minsF  []float64
	maxsF  []float64
	firsts []vector.Value
	seen   []bool
}

type groupKey struct {
	i1, i2 int64
	s1, s2 string
}

// AggOutputSchema resolves the output schema of a grouped aggregation over a
// child schema: the key columns first, then one column per aggregate. It is
// shared by the serial HashAgg and the morsel-parallel aggregation, so both
// validate (and err) identically.
func AggOutputSchema(child []ColInfo, keys []string, aggs []Aggregate) ([]ColInfo, error) {
	if len(keys) > 2 {
		return nil, fmt.Errorf("engine: at most 2 group keys supported, got %d", len(keys))
	}
	colKind := func(name string) (vector.Kind, error) {
		for _, ci := range child {
			if ci.Name == name {
				return ci.Kind, nil
			}
		}
		return vector.Invalid, fmt.Errorf("engine: aggregate column %q not produced by child", name)
	}
	var schema []ColInfo
	for _, k := range keys {
		kind, err := colKind(k)
		if err != nil {
			return nil, err
		}
		if kind != vector.I64 && kind != vector.Str {
			return nil, fmt.Errorf("engine: group key %q must be i64 or str, got %v", k, kind)
		}
		schema = append(schema, ColInfo{Name: k, Kind: kind})
	}
	for _, a := range aggs {
		switch a.Func {
		case AggCount:
			schema = append(schema, ColInfo{Name: a.As, Kind: vector.I64})
		case AggAvg:
			schema = append(schema, ColInfo{Name: a.As, Kind: vector.F64})
		case AggFirst:
			kind, err := colKind(a.Col)
			if err != nil {
				return nil, err
			}
			schema = append(schema, ColInfo{Name: a.As, Kind: kind})
		default:
			kind, err := colKind(a.Col)
			if err != nil {
				return nil, err
			}
			if !kind.IsNumeric() {
				return nil, fmt.Errorf("engine: aggregate input %q must be numeric", a.Col)
			}
			schema = append(schema, ColInfo{Name: a.As, Kind: kind})
		}
	}
	return schema, nil
}

// slabStates is the stateSlab block size: one slab refill carves backing
// arrays for this many group states at once.
const slabStates = 64

// stateSlab block-allocates aggState objects. A naive per-group allocation
// costs ten small allocations (the state plus nine accumulator slices); for
// high-cardinality aggregations that allocator traffic dominates the absorb
// loop. The slab allocates one block of states and three backing arrays per
// refill and carves fixed-capacity sub-slices out of them, so the amortized
// cost per group is ~10/slabStates allocations. Handed-out states are never
// reclaimed by the slab — they stay valid after the owning table is released
// to the pool (merge adopts state pointers across tables).
type stateSlab struct {
	naggs  int
	states []aggState
	ints   []int64
	floats []float64
	firsts []vector.Value
	seen   []bool
}

func (s *stateSlab) alloc(naggs int, key groupKey) *aggState {
	if len(s.states) == 0 || s.naggs != naggs {
		s.naggs = naggs
		n := slabStates * naggs
		s.states = make([]aggState, slabStates)
		s.ints = make([]int64, 4*n)
		s.floats = make([]float64, 3*n)
		s.firsts = make([]vector.Value, n)
		s.seen = make([]bool, n)
	}
	st := &s.states[0]
	s.states = s.states[1:]
	st.key = key
	carveI := func() []int64 {
		c := s.ints[:naggs:naggs]
		s.ints = s.ints[naggs:]
		return c
	}
	carveF := func() []float64 {
		c := s.floats[:naggs:naggs]
		s.floats = s.floats[naggs:]
		return c
	}
	st.counts, st.sumsI, st.minsI, st.maxsI = carveI(), carveI(), carveI(), carveI()
	st.sumsF, st.minsF, st.maxsF = carveF(), carveF(), carveF()
	st.firsts = s.firsts[:naggs:naggs]
	s.firsts = s.firsts[naggs:]
	st.seen = s.seen[:naggs:naggs]
	s.seen = s.seen[naggs:]
	return st
}

// aggTable is a grouped-aggregation accumulator: a hash table of per-group
// states plus the first-seen group order. It is the building block shared by
// the serial HashAgg (one global table) and the morsel-parallel aggregation
// (one table per morsel).
type aggTable struct {
	keys   []string
	aggs   []Aggregate
	groups map[groupKey]*aggState
	order  []groupKey
	slab   stateSlab
}

// aggTablePool recycles aggTable containers — the groups map's buckets, the
// order slice and the slab tail — across morsels and queries. Only the
// containers are pooled: group states are slab-allocated and adopted by
// whichever table they are merged into, so a released table never aliases
// live accumulator memory.
var aggTablePool = sync.Pool{New: func() any { return new(aggTable) }}

func newAggTable(keys []string, aggs []Aggregate) *aggTable {
	return newAggTableSized(keys, aggs, 0)
}

// newAggTableSized is newAggTable with a group-count hint (0 = unknown): the
// morsel-parallel aggregation sizes per-morsel tables from the scan's
// zone-map distinct estimates so high-cardinality runs skip the incremental
// map growth. A pooled table keeps whatever bucket capacity it grew to, which
// usually exceeds the hint.
func newAggTableSized(keys []string, aggs []Aggregate, hint int) *aggTable {
	t := aggTablePool.Get().(*aggTable)
	t.keys, t.aggs = keys, aggs
	if t.groups == nil {
		t.groups = make(map[groupKey]*aggState, hint)
	}
	if cap(t.order) < hint {
		t.order = make([]groupKey, 0, hint)
	}
	return t
}

// release returns the table's containers to the pool. Callers must be done
// with the table itself but may keep using its states: emitted chunks copy
// values out, and merge adopts state pointers into the surviving table, so
// clearing the map here only drops references.
func (t *aggTable) release() {
	clear(t.groups)
	t.order = t.order[:0]
	t.keys, t.aggs = nil, nil
	aggTablePool.Put(t)
}

func (t *aggTable) newState(key groupKey) *aggState {
	return t.slab.alloc(len(t.aggs), key)
}

// global returns the state for key, creating it on first sight.
func (t *aggTable) global(key groupKey) *aggState {
	st, ok := t.groups[key]
	if !ok {
		st = t.newState(key)
		t.groups[key] = st
		t.order = append(t.order, key)
	}
	return st
}

// absorb folds every selected row of a chunk into the table, reading it
// through its selection vector instead of condensing it first. Selections
// are sorted, so per-group accumulation order is exactly the chunk's row
// order, which is what keeps parallel float aggregation byte-identical to
// serial: a group's arithmetic only depends on the order of its own rows.
func (t *aggTable) absorb(cc *vector.Chunk) {
	keyCols := make([]*vector.Vector, len(t.keys))
	valCols := make([]*vector.Vector, len(t.aggs))
	for i, k := range t.keys {
		keyCols[i] = cc.MustColumn(k)
	}
	for i, a := range t.aggs {
		if a.Func != AggCount {
			valCols[i] = cc.MustColumn(a.Col)
		}
	}
	upds := makeUpdaters(t.aggs, valCols)
	keyAt := makeKeyReader(t.keys, keyCols)
	sel := cc.Sel()
	for i, n := 0, cc.SelectedLen(); i < n; i++ {
		r := i
		if sel != nil {
			r = int(sel[i])
		}
		st := t.global(keyAt(r))
		for _, u := range upds {
			u(st, r)
		}
	}
}

// merge folds src into t in src's first-seen order. src must hold strictly
// later table rows than everything already in t — ParallelAgg merges the
// per-morsel tables in morsel sequence order — so overlapping groups combine
// under aggState.merge's "other holds later rows" contract (sums add, First
// keeps t's value) and new groups append in first-seen order. The result is
// exactly the fold a single table absorbing the morsels back-to-back would
// produce, independent of which worker ran which morsel.
func (t *aggTable) merge(src *aggTable) {
	for _, key := range src.order {
		st := src.groups[key]
		if dst, ok := t.groups[key]; ok {
			dst.merge(t.aggs, st)
		} else {
			t.groups[key] = st
			t.order = append(t.order, key)
		}
	}
}

// HashAgg groups by up to two key columns (i64 or str) and computes
// aggregates. It is a pipeline breaker: Next drains the child on first call
// and then streams the result groups.
type HashAgg struct {
	child  Operator
	keys   []string
	aggs   []Aggregate
	mode   PreAggMode
	schema []ColInfo

	tbl     *aggTable
	out     *vector.Chunk
	emitted bool

	hitEW  *profile.EWMA
	useNow bool
	// PreAggHits / PreAggMisses / PreAggFlushes instrument the flavor.
	PreAggHits, PreAggMisses, PreAggFlushes int64
}

// NewHashAgg creates a grouped aggregation.
func NewHashAgg(child Operator, keys []string, aggs []Aggregate) *HashAgg {
	h := &HashAgg{
		child: child, keys: keys, aggs: aggs,
		mode: PreAggAdaptive, hitEW: profile.NewEWMA(0.25), useNow: true,
	}
	// Resolve the schema eagerly when the child's is known statically, so
	// operators stacked on an aggregation (TopK, probes) can validate before
	// Open; Open re-resolves authoritatively.
	if cs := child.Schema(); cs != nil {
		if sch, err := AggOutputSchema(cs, keys, aggs); err == nil {
			h.schema = sch
		}
	}
	return h
}

// SetPreAgg fixes the pre-aggregation flavor (default adaptive).
func (h *HashAgg) SetPreAgg(m PreAggMode) *HashAgg { h.mode = m; return h }

// PreAggEnabled reports the current flavor decision.
func (h *HashAgg) PreAggEnabled() bool {
	switch h.mode {
	case PreAggOn:
		return true
	case PreAggOff:
		return false
	}
	return h.useNow
}

// Schema implements Operator.
func (h *HashAgg) Schema() []ColInfo { return h.schema }

// Open implements Operator.
func (h *HashAgg) Open(ctx context.Context) error {
	if err := h.child.Open(ctx); err != nil {
		return err
	}
	sch, err := AggOutputSchema(h.child.Schema(), h.keys, h.aggs)
	if err != nil {
		return err
	}
	h.schema = sch
	h.tbl = newAggTable(h.keys, h.aggs)
	h.emitted = false
	return nil
}

func (st *aggState) update(aggs []Aggregate, vals []vector.Value) {
	for ai, a := range aggs {
		switch a.Func {
		case AggCount:
			st.counts[ai]++
			continue
		case AggFirst:
			if !st.seen[ai] {
				st.firsts[ai] = vals[ai]
				st.seen[ai] = true
			}
			continue
		}
		v := vals[ai]
		st.counts[ai]++
		if v.Kind == vector.F64 {
			st.sumsF[ai] += v.F
			if !st.seen[ai] || v.F < st.minsF[ai] {
				st.minsF[ai] = v.F
			}
			if !st.seen[ai] || v.F > st.maxsF[ai] {
				st.maxsF[ai] = v.F
			}
		} else {
			st.sumsI[ai] += v.I
			if !st.seen[ai] || v.I < st.minsI[ai] {
				st.minsI[ai] = v.I
			}
			if !st.seen[ai] || v.I > st.maxsI[ai] {
				st.maxsI[ai] = v.I
			}
		}
		st.seen[ai] = true
	}
}

// merge folds a pre-aggregation state into the global state. other holds
// later rows than st, so First keeps st's value when st has seen any.
func (st *aggState) merge(aggs []Aggregate, other *aggState) {
	for ai := range aggs {
		if aggs[ai].Func == AggFirst {
			if !st.seen[ai] && other.seen[ai] {
				st.firsts[ai] = other.firsts[ai]
				st.seen[ai] = true
			}
			continue
		}
		st.counts[ai] += other.counts[ai]
		st.sumsI[ai] += other.sumsI[ai]
		st.sumsF[ai] += other.sumsF[ai]
		if other.seen[ai] {
			if !st.seen[ai] || other.minsI[ai] < st.minsI[ai] {
				st.minsI[ai] = other.minsI[ai]
			}
			if !st.seen[ai] || other.maxsI[ai] > st.maxsI[ai] {
				st.maxsI[ai] = other.maxsI[ai]
			}
			if !st.seen[ai] || other.minsF[ai] < st.minsF[ai] {
				st.minsF[ai] = other.minsF[ai]
			}
			if !st.seen[ai] || other.maxsF[ai] > st.maxsF[ai] {
				st.maxsF[ai] = other.maxsF[ai]
			}
			st.seen[ai] = true
		}
	}
}

// Next implements Operator. The aggregation is a pipeline breaker: the
// first call drains the child (checking ctx chunk-by-chunk through the
// child's own Next) and emits the grouped result.
func (h *HashAgg) Next(ctx context.Context) (*vector.Chunk, error) {
	if h.emitted {
		return nil, nil
	}
	keyCols := make([]*vector.Vector, len(h.keys))
	valCols := make([]*vector.Vector, len(h.aggs))

	// Pre-aggregation table: direct-mapped, cache resident.
	var pre []*aggState
	if h.PreAggEnabled() {
		pre = make([]*aggState, preAggSlots)
	}
	flushPre := func() {
		for i, st := range pre {
			if st != nil {
				h.tbl.global(st.key).merge(h.aggs, st)
				pre[i] = nil
				h.PreAggFlushes++
			}
		}
	}

	for {
		chunk, err := h.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		for i, k := range h.keys {
			keyCols[i] = chunk.MustColumn(k)
		}
		for i, a := range h.aggs {
			if a.Func != AggCount {
				valCols[i] = chunk.MustColumn(a.Col)
			}
		}
		// Compile-time-resolved updaters: one monomorphic closure per
		// aggregate per chunk, avoiding per-row Value boxing and the
		// generic update switch.
		upds := makeUpdaters(h.aggs, valCols)
		keyAt := makeKeyReader(h.keys, keyCols)

		// Re-evaluate the flavor per chunk (adaptive trigger).
		wantPre := h.PreAggEnabled()
		if wantPre && pre == nil {
			pre = make([]*aggState, preAggSlots)
		}
		if !wantPre && pre != nil {
			flushPre()
			pre = nil
		}

		hits, misses := 0, 0
		apply := func(st *aggState, r int) {
			for _, u := range upds {
				u(st, r)
			}
		}
		// Fold through the selection, in row order (selections are sorted).
		sel := chunk.Sel()
		for i, n := 0, chunk.SelectedLen(); i < n; i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			key := keyAt(r)
			if pre != nil {
				slot := int((uint64(key.i1)*0x9e3779b97f4a7c15 ^ uint64(len(key.s1))<<32 ^ uint64(key.i2) ^ hashStr(key.s1) ^ hashStr(key.s2)) % preAggSlots)
				st := pre[slot]
				if st != nil && st.key == key {
					hits++
					apply(st, r)
					continue
				}
				misses++
				if st != nil {
					h.tbl.global(st.key).merge(h.aggs, st)
					h.PreAggFlushes++
				}
				st = h.tbl.newState(key)
				apply(st, r)
				pre[slot] = st
				continue
			}
			apply(h.tbl.global(key), r)
		}
		h.PreAggHits += int64(hits)
		h.PreAggMisses += int64(misses)
		if pre != nil && hits+misses > 0 {
			h.hitEW.Observe(float64(hits) / float64(hits+misses))
			if h.mode == PreAggAdaptive {
				h.useNow = h.hitEW.Value(1) >= preAggThreshold
			}
		}
	}
	if pre != nil {
		flushPre()
	}

	// Emit groups in first-seen order (stable for tests).
	return h.emit()
}

// Close implements Operator.
func (h *HashAgg) Close() error { return h.child.Close() }

// makeUpdaters resolves one monomorphic per-row updater per aggregate for
// the current chunk's column vectors.
func makeUpdaters(aggs []Aggregate, valCols []*vector.Vector) []func(st *aggState, r int) {
	upds := make([]func(st *aggState, r int), len(aggs))
	for ai, a := range aggs {
		ai := ai
		if a.Func == AggCount {
			upds[ai] = func(st *aggState, r int) { st.counts[ai]++ }
			continue
		}
		col := valCols[ai]
		if a.Func == AggFirst {
			upds[ai] = func(st *aggState, r int) {
				if !st.seen[ai] {
					st.firsts[ai] = col.Get(r)
					st.seen[ai] = true
				}
			}
			continue
		}
		switch col.Kind() {
		case vector.F64:
			d := col.F64()
			switch a.Func {
			case AggSum, AggAvg:
				upds[ai] = func(st *aggState, r int) {
					st.counts[ai]++
					st.sumsF[ai] += d[r]
				}
			case AggMin:
				upds[ai] = func(st *aggState, r int) {
					st.counts[ai]++
					if !st.seen[ai] || d[r] < st.minsF[ai] {
						st.minsF[ai] = d[r]
					}
					st.seen[ai] = true
				}
			case AggMax:
				upds[ai] = func(st *aggState, r int) {
					st.counts[ai]++
					if !st.seen[ai] || d[r] > st.maxsF[ai] {
						st.maxsF[ai] = d[r]
					}
					st.seen[ai] = true
				}
			}
		case vector.I64:
			d := col.I64()
			switch a.Func {
			case AggSum, AggAvg:
				upds[ai] = func(st *aggState, r int) {
					st.counts[ai]++
					st.sumsI[ai] += d[r]
				}
			case AggMin:
				upds[ai] = func(st *aggState, r int) {
					st.counts[ai]++
					if !st.seen[ai] || d[r] < st.minsI[ai] {
						st.minsI[ai] = d[r]
					}
					st.seen[ai] = true
				}
			case AggMax:
				upds[ai] = func(st *aggState, r int) {
					st.counts[ai]++
					if !st.seen[ai] || d[r] > st.maxsI[ai] {
						st.maxsI[ai] = d[r]
					}
					st.seen[ai] = true
				}
			}
		}
		if upds[ai] == nil {
			// Generic fallback for narrower integer kinds.
			fn := a.Func
			col := col
			upds[ai] = func(st *aggState, r int) {
				v := col.Get(r)
				st.counts[ai]++
				switch fn {
				case AggSum, AggAvg:
					st.sumsI[ai] += v.I
				case AggMin:
					if !st.seen[ai] || v.I < st.minsI[ai] {
						st.minsI[ai] = v.I
					}
					st.seen[ai] = true
				case AggMax:
					if !st.seen[ai] || v.I > st.maxsI[ai] {
						st.maxsI[ai] = v.I
					}
					st.seen[ai] = true
				}
			}
		}
	}
	return upds
}

// makeKeyReader resolves a typed group-key extractor for the current chunk.
func makeKeyReader(keys []string, keyCols []*vector.Vector) func(r int) groupKey {
	switch len(keys) {
	case 0:
		return func(int) groupKey { return groupKey{} }
	case 1:
		if keyCols[0].Kind() == vector.I64 {
			d := keyCols[0].I64()
			return func(r int) groupKey { return groupKey{i1: d[r]} }
		}
		d := keyCols[0].Str()
		return func(r int) groupKey { return groupKey{s1: d[r]} }
	default:
		get1 := keyPart(keyCols[0])
		get2 := keyPart(keyCols[1])
		return func(r int) groupKey {
			k := groupKey{}
			k.i1, k.s1 = get1(r)
			k.i2, k.s2 = get2(r)
			return k
		}
	}
}

func keyPart(col *vector.Vector) func(r int) (int64, string) {
	if col.Kind() == vector.I64 {
		d := col.I64()
		return func(r int) (int64, string) { return d[r], "" }
	}
	d := col.Str()
	return func(r int) (int64, string) { return 0, d[r] }
}

func hashStr(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (h *HashAgg) emit() (*vector.Chunk, error) {
	h.emitted = true
	out := emitAggChunk(h.schema, h.keys, h.aggs, h.tbl)
	h.tbl.release()
	h.tbl = nil
	return out, nil
}

// emitAggChunk materializes an aggregation table into one result chunk,
// sorted by the key columns for a deterministic output order. Shared by
// HashAgg and the morsel-parallel aggregation, so both emit identical bytes
// for identical states.
func emitAggChunk(schema []ColInfo, keys []string, aggs []Aggregate, tbl *aggTable) *vector.Chunk {
	n := len(tbl.order)
	out := vector.NewChunk()
	for ki, ci := range schema[:len(keys)] {
		col := vector.New(ci.Kind, 0, n)
		for _, key := range tbl.order {
			switch {
			case ci.Kind == vector.I64 && ki == 0:
				col.AppendValue(vector.I64Value(key.i1))
			case ci.Kind == vector.I64:
				col.AppendValue(vector.I64Value(key.i2))
			case ki == 0:
				col.AppendValue(vector.StrValue(key.s1))
			default:
				col.AppendValue(vector.StrValue(key.s2))
			}
		}
		out.Add(ci.Name, col)
	}
	for ai, a := range aggs {
		ci := schema[len(keys)+ai]
		col := vector.New(ci.Kind, 0, n)
		for _, key := range tbl.order {
			st := tbl.groups[key]
			switch a.Func {
			case AggCount:
				col.AppendValue(vector.I64Value(st.counts[ai]))
			case AggSum:
				if ci.Kind == vector.F64 {
					col.AppendValue(vector.F64Value(st.sumsF[ai]))
				} else {
					col.AppendValue(vector.IntValue(ci.Kind, st.sumsI[ai]))
				}
			case AggAvg:
				sum := st.sumsF[ai] + float64(st.sumsI[ai])
				col.AppendValue(vector.F64Value(sum / float64(maxi64(st.counts[ai], 1))))
			case AggMin:
				if ci.Kind == vector.F64 {
					col.AppendValue(vector.F64Value(st.minsF[ai]))
				} else {
					col.AppendValue(vector.IntValue(ci.Kind, st.minsI[ai]))
				}
			case AggMax:
				if ci.Kind == vector.F64 {
					col.AppendValue(vector.F64Value(st.maxsF[ai]))
				} else {
					col.AppendValue(vector.IntValue(ci.Kind, st.maxsI[ai]))
				}
			case AggFirst:
				col.AppendValue(st.firsts[ai])
			}
		}
		out.Add(a.As, col)
	}
	// Deterministic output order: sort rows by key columns.
	sortChunkByKeys(out, len(keys))
	return out
}

// sortChunkByKeys reorders all columns of a materialized chunk by its first
// k columns ascending.
func sortChunkByKeys(c *vector.Chunk, k int) {
	n := c.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		for ki := 0; ki < k; ki++ {
			va, vb := c.Col(ki).Get(a), c.Col(ki).Get(b)
			if va.Equal(vb) {
				continue
			}
			switch va.Kind {
			case vector.Str:
				return va.S < vb.S
			case vector.F64:
				return va.F < vb.F
			default:
				return va.I < vb.I
			}
		}
		return false
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	sel := make(vector.Sel, n)
	for i, x := range idx {
		sel[i] = int32(x)
	}
	for i := 0; i < c.Width(); i++ {
		reordered := vector.Condense(c.Col(i), sel)
		c.Col(i).CopyFrom(0, reordered, 0, n)
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
