package fused

import (
	"repro/internal/primitive"
	"repro/internal/vector"
)

// runChunk executes the fused loop over one leaf chunk. It returns the
// output chunk (nil when every row filtered out) and ok=false when a guard
// tripped — in which case nothing was emitted and the caller reverts the
// Exec to the interpreter, replaying this same chunk.
//
// The emitted chunk follows the chunk-lifetime contract of
// engine.Operator: untouched scan columns are shared with the input
// (exactly like the interpreter's shallow chunks), while computed columns,
// probe gathers, the selection vector and the chunk header live in
// Exec-owned buffers that the next chunk overwrites.
func (e *Exec) runChunk(in *vector.Chunk) (*vector.Chunk, bool) {
	n := in.Len()
	if n == 0 {
		return nil, true
	}
	if e.vals == nil {
		e.vals = make([]*vector.Vector, e.prog.nvals)
		e.bufs = make([][]*vector.Vector, len(e.prog.ops))
		e.idx = make([]int32, 0, n)
	}
	for i := 0; i < in.Width(); i++ {
		e.vals[i] = in.Col(i)
	}
	// rows is the physical length of the current values. While dense, every
	// row is selected and idx is not materialized. idx is never nil, so once
	// not dense it selects exactly its rows, none when empty; a nil
	// selection would mean every row.
	rows, dense := n, in.Sel() == nil
	if !dense {
		e.idx = append(e.idx[:0], in.Sel()...)
	}

	for oi := range e.prog.ops {
		o := &e.prog.ops[oi]
		sel, hi := e.idx, len(e.idx)
		if dense {
			sel, hi = nil, rows
		}
		switch {
		case o.sel != nil:
			e.idx = o.sel(e.idx, e.vals[o.a.v], o.b.c, sel, 0, hi)
			dense = dense && len(e.idx) == rows
		case o.mask:
			e.idx = primitive.SelectFromBoolInto(e.idx, e.vals[o.a.v], sel)
			dense = dense && len(e.idx) == rows
		case o.probe != nil:
			if dense {
				e.idx = e.idx[:0]
				for i := 0; i < rows; i++ {
					e.idx = append(e.idx, int32(i))
				}
			}
			matched, ok := e.runProbe(oi, o, n)
			if !ok {
				return nil, false // capacity guard: fan-out beyond the bound
			}
			rows, dense = matched, true
		default:
			dst := e.buf(oi, 0, o.kern.Out(), rows, n)
			if 2*hi >= rows {
				// Mostly selected: the dense loop over every row is cheaper
				// than indirection, and kernels are total, so the unselected
				// rows' values are merely never read.
				sel, hi = nil, rows
			}
			o.kern.Run(dst, e.arg(o.a), e.arg(o.b), sel, 0, hi)
			e.vals[o.dst] = dst
		}
	}

	outRows := rows
	if !dense {
		outRows = len(e.idx)
	}
	rate := float64(outRows) / float64(n)
	if e.warm < guardWarmChunks {
		e.warm++
		e.rateSum += rate
		if e.warm == guardWarmChunks {
			e.bound = guardFactor*(e.rateSum/guardWarmChunks) + guardSlack
		}
	} else if rate > e.bound {
		return nil, false // selectivity guard: distribution shifted mid-stream
	}
	if outRows == 0 {
		return nil, true
	}

	e.out.Reset()
	for i, v := range e.prog.slotVal {
		e.out.Add(e.prog.slots[i].Name, e.vals[v])
	}
	if !dense {
		e.out.SetSel(e.idx)
	}
	return &e.out, true
}

// arg resolves an operand to a kernel argument.
func (e *Exec) arg(x operand) primitive.Arg {
	if x.v < 0 {
		return primitive.Arg{Val: x.c}
	}
	return primitive.Arg{Vec: e.vals[x.v]}
}

// buf returns output vector j of op oi resized to rows, recycled across
// chunks. A buffer is allocated on first use with room for the larger of
// rows and the input chunk length n, so steady-state chunks never grow it.
func (e *Exec) buf(oi, j int, kind vector.Kind, rows, n int) *vector.Vector {
	for len(e.bufs[oi]) <= j {
		e.bufs[oi] = append(e.bufs[oi], nil)
	}
	v := e.bufs[oi][j]
	if v == nil {
		v = vector.New(kind, rows, max(rows, n))
		e.bufs[oi][j] = v
	}
	v.SetLen(rows)
	return v
}

// runProbe matches the selected rows' keys against a join table and
// condenses the stream to the match pairs: every live value is gathered by
// the matching probe rows, payload columns by the matching build rows —
// probe-major, match lists in build order, exactly the serial nested-emit
// order of the interpreted probe. Afterwards every match is selected.
// ok=false when the fan-out exceeds the capacity guard.
func (e *Exec) runProbe(oi int, o *op, n int) (matched int, ok bool) {
	pr := o.probe
	t := e.resolved[pr.table]
	keys := e.vals[o.a.v].I64()
	limit := probeFanoutCap * n
	if limit < 64 {
		limit = 64
	}
	e.probeIdx = e.probeIdx[:0]
	e.buildIdx = e.buildIdx[:0]
	for _, r := range e.idx {
		for _, m := range t.Lookup(keys[r]) {
			if len(e.probeIdx) >= limit {
				return 0, false
			}
			e.probeIdx = append(e.probeIdx, r)
			e.buildIdx = append(e.buildIdx, m)
		}
	}
	matched = len(e.probeIdx)
	for j, v := range pr.live {
		e.vals[v] = vector.CondenseInto(e.buf(oi, j, e.vals[v].Kind(), matched, n), e.vals[v], vector.Sel(e.probeIdx))
	}
	rows := t.Rows()
	for j, pi := range pr.payIdx {
		col := rows.Col(pi)
		e.vals[o.dst+j] = vector.CondenseInto(e.buf(oi, len(pr.live)+j, col.Kind(), matched, n), col, vector.Sel(e.buildIdx))
	}
	return matched, true
}
