package fused

import (
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
	e.slots = e.slots[:0]
	for i := 0; i < in.Width(); i++ {
		e.slots = append(e.slots, in.Col(i))
	}
	e.idx = e.idx[:0]
	if s := in.Sel(); s != nil {
		e.idx = append(e.idx, s...)
	} else {
		for i := 0; i < n; i++ {
			e.idx = append(e.idx, int32(i))
		}
	}
	curLen := n

	for oi := range e.prog.ops {
		o := &e.prog.ops[oi]
		idx := e.idx
		k := 0
		switch o.code {

		case opFilterLtI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] < c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterLeI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] <= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGtI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] > c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGeI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] >= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterEqI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] == c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterNeI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] != c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterModEqI64:
			src, m, c := e.slots[o.a].I64(), o.ci, o.cj
			for _, r := range idx {
				if src[r]%m == c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]

		case opFilterLtF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] < c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterLeF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] <= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGtF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] > c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGeF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] >= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterEqF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] == c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterNeF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] != c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]

		case opAffineI64:
			src := e.slots[o.a].I64()
			out := e.buf(oi, 0, vector.I64, curLen, n)
			dst := out.I64()
			c, d := o.ci, o.cj
			for _, r := range idx {
				dst[r] = src[r]*c + d
			}
			e.slots = append(e.slots, out)
		case opModMulI64:
			src := e.slots[o.a].I64()
			out := e.buf(oi, 0, vector.I64, curLen, n)
			dst := out.I64()
			m, c := o.ci, o.cj
			for _, r := range idx {
				dst[r] = (src[r] % m) * c
			}
			e.slots = append(e.slots, out)
		case opMulAddI64:
			sa, sb := e.slots[o.a].I64(), e.slots[o.b].I64()
			out := e.buf(oi, 0, vector.I64, curLen, n)
			dst := out.I64()
			c := o.ci
			for _, r := range idx {
				dst[r] = sa[r] + sb[r]*c
			}
			e.slots = append(e.slots, out)
		case opSquareI64:
			src := e.slots[o.a].I64()
			out := e.buf(oi, 0, vector.I64, curLen, n)
			dst := out.I64()
			for _, r := range idx {
				dst[r] = src[r] * src[r]
			}
			e.slots = append(e.slots, out)
		case opAffineF64:
			src := e.slots[o.a].F64()
			out := e.buf(oi, 0, vector.F64, curLen, n)
			dst := out.F64()
			c, d := o.cf, o.cg
			for _, r := range idx {
				dst[r] = src[r]*c + d
			}
			e.slots = append(e.slots, out)
		case opSquareF64:
			src := e.slots[o.a].F64()
			out := e.buf(oi, 0, vector.F64, curLen, n)
			dst := out.F64()
			for _, r := range idx {
				dst[r] = src[r] * src[r]
			}
			e.slots = append(e.slots, out)
		case opMulF64:
			sa, sb := e.slots[o.a].F64(), e.slots[o.b].F64()
			out := e.buf(oi, 0, vector.F64, curLen, n)
			dst := out.F64()
			for _, r := range idx {
				dst[r] = sa[r] * sb[r]
			}
			e.slots = append(e.slots, out)
		case opMulConstSubF64:
			sa, sb := e.slots[o.a].F64(), e.slots[o.b].F64()
			out := e.buf(oi, 0, vector.F64, curLen, n)
			dst := out.F64()
			c := o.cf
			for _, r := range idx {
				dst[r] = sa[r] * (c - sb[r])
			}
			e.slots = append(e.slots, out)
		case opMulConstAddF64:
			sa, sb := e.slots[o.a].F64(), e.slots[o.b].F64()
			out := e.buf(oi, 0, vector.F64, curLen, n)
			dst := out.F64()
			c := o.cf
			for _, r := range idx {
				dst[r] = sa[r] * (c + sb[r])
			}
			e.slots = append(e.slots, out)

		case opProbe:
			matched, ok := e.runProbe(oi, o, n)
			if !ok {
				return nil, false // capacity guard: fan-out beyond the bound
			}
			curLen = matched
		}
	}

	outRows := len(e.idx)
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
	for i, v := range e.slots {
		e.out.Add(e.prog.slots[i].Name, v)
	}
	if outRows < curLen {
		e.out.SetSel(e.idx)
	}
	return &e.out, true
}

// buf returns output vector j of op oi resized to rows, recycled across
// chunks. A buffer is allocated on first use with room for the larger of
// rows and the input chunk length n, so steady-state chunks never grow it.
func (e *Exec) buf(oi, j int, kind vector.Kind, rows, n int) *vector.Vector {
	if e.bufs == nil {
		e.bufs = make([][]*vector.Vector, len(e.prog.ops))
	}
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
// condenses the stream to the match pairs: every current slot is gathered by
// the matching probe rows, payload columns by the matching build rows —
// probe-major, match lists in build order, exactly the serial nested-emit
// order of the interpreted probe. Afterwards the selection is the identity
// over the matches. ok=false when the fan-out exceeds the capacity guard.
func (e *Exec) runProbe(oi int, o *op, n int) (matched int, ok bool) {
	t := e.resolved[o.table]
	keys := e.slots[o.a].I64()
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
	width := len(e.slots)
	for i, v := range e.slots {
		e.slots[i] = vector.CondenseInto(e.buf(oi, i, v.Kind(), matched, n), v, vector.Sel(e.probeIdx))
	}
	rows := t.Rows()
	for j, pi := range o.payIdx {
		col := rows.Col(pi)
		e.slots = append(e.slots, vector.CondenseInto(e.buf(oi, width+j, col.Kind(), matched, n), col, vector.Sel(e.buildIdx)))
	}
	e.idx = e.idx[:0]
	for i := 0; i < matched; i++ {
		e.idx = append(e.idx, int32(i))
	}
	return matched, true
}
