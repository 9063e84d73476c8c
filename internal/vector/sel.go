package vector

import "fmt"

// Sel is a selection vector: a sorted list of indexes into a chunk that are
// logically "alive". A nil Sel means all rows are selected. Filters produce
// selection vectors instead of physically compacting the data; the condense
// skeleton materializes the selection (Table I of the paper).
type Sel []int32

// AllSel returns an explicit identity selection of length n. Most code should
// use nil instead; AllSel exists for algorithms that need a mutable base.
func AllSel(n int) Sel {
	s := make(Sel, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// Count returns the number of selected rows given a base row count n.
func (s Sel) Count(n int) int {
	if s == nil {
		return n
	}
	return len(s)
}

// Validate checks that s is sorted, unique and within [0, n).
func (s Sel) Validate(n int) error {
	prev := int32(-1)
	for i, x := range s {
		if x < 0 || int(x) >= n {
			return fmt.Errorf("sel[%d]=%d out of range [0,%d)", i, x, n)
		}
		if x <= prev {
			return fmt.Errorf("sel not strictly increasing at %d: %d after %d", i, x, prev)
		}
		prev = x
	}
	return nil
}

// Intersect returns the intersection of two selection vectors over a base of
// n rows. Either may be nil (meaning all rows).
func Intersect(a, b Sel, n int) Sel {
	if a == nil {
		if b == nil {
			return nil
		}
		return b
	}
	if b == nil {
		return a
	}
	out := make(Sel, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Union returns the sorted union of two selection vectors.
func Union(a, b Sel) Sel {
	out := make(Sel, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Complement returns the rows in [0, n) that are not in s.
func Complement(s Sel, n int) Sel {
	if s == nil {
		return Sel{}
	}
	out := make(Sel, 0, n-len(s))
	j := 0
	for i := int32(0); int(i) < n; i++ {
		if j < len(s) && s[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// SelFromMask converts a boolean mask into a selection vector.
func SelFromMask(mask []bool) Sel {
	out := make(Sel, 0, len(mask))
	for i, b := range mask {
		if b {
			out = append(out, int32(i))
		}
	}
	return out
}

// MaskFromSel converts a selection vector over n rows into a boolean mask.
func MaskFromSel(s Sel, n int) []bool {
	mask := make([]bool, n)
	if s == nil {
		for i := range mask {
			mask[i] = true
		}
		return mask
	}
	for _, x := range s {
		mask[x] = true
	}
	return mask
}

// Condense materializes the selection: it returns a new vector containing
// only the selected elements of v, in order. With a nil selection it clones.
func Condense(v *Vector, s Sel) *Vector {
	n := s.Count(v.Len())
	return CondenseInto(New(v.Kind(), n, n), v, s)
}

// CondenseInto is Condense into a caller-owned buffer: dst (same kind as
// v) is resized to the selected row count — reallocating only when its
// capacity is short — filled with the selected elements of v in order, and
// returned. dst must not share storage with v. Pipelines that gather once
// per chunk recycle one dst across chunks instead of allocating per call.
func CondenseInto(dst, v *Vector, s Sel) *Vector {
	if dst.kind != v.kind {
		panic(fmt.Sprintf("vector.CondenseInto: kind mismatch %v vs %v", dst.kind, v.kind))
	}
	if s == nil {
		dst.SetLen(v.n)
		dst.CopyFrom(0, v, 0, v.n)
		return dst
	}
	dst.SetLen(len(s))
	switch v.kind {
	case Bool:
		gather(dst.b, v.b, s)
	case I8:
		gather(dst.i8, v.i8, s)
	case I16:
		gather(dst.i16, v.i16, s)
	case I32:
		gather(dst.i32, v.i32, s)
	case I64:
		gather(dst.i64, v.i64, s)
	case F64:
		gather(dst.f64, v.f64, s)
	case Str:
		gather(dst.str, v.str, s)
	}
	return dst
}

// gather writes src[s[i]] to dst[i] for every i.
func gather[T any](dst, src []T, s Sel) {
	for i, x := range s {
		dst[i] = src[x]
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
