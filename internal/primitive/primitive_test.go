package primitive

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/nir"
	"repro/internal/vector"
)

func TestSafeDivisionSemantics(t *testing.T) {
	k, _ := MapBinVV(vector.I64, nir.ADiv)
	dst := vector.NewLen(vector.I64, 3)
	a := vector.FromI64([]int64{10, -9223372036854775808, 7})
	b := vector.FromI64([]int64{0, -1, 2})
	k(dst, a, b, nil, 0, 3)
	if dst.I64()[0] != 0 {
		t.Error("div by zero must yield 0")
	}
	// MinInt64 / -1 must not panic; it wraps back to MinInt64.
	if dst.I64()[1] != -9223372036854775808 {
		t.Errorf("minint/-1 = %d, want wrapped MinInt64", dst.I64()[1])
	}
	if dst.I64()[2] != 3 {
		t.Error("7/2 = 3")
	}
	m, _ := MapBinVV(vector.I64, nir.AMod)
	m(dst, a, b, nil, 0, 3)
	if dst.I64()[0] != 0 || dst.I64()[1] != 0 {
		t.Error("mod by 0/-1 must yield 0")
	}
}

func TestWindowedExecution(t *testing.T) {
	k, _ := MapBinVS(vector.I64, nir.AAdd)
	dst := vector.NewLen(vector.I64, 8)
	a := vector.FromI64([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	k(dst, a, vector.I64Value(10), nil, 2, 5)
	want := []int64{0, 0, 13, 14, 15, 0, 0, 0}
	for i, w := range want {
		if dst.I64()[i] != w {
			t.Fatalf("window write wrong: %v", dst.I64())
		}
	}
	// Selection-vector window indexes the sel list.
	sel := vector.Sel{1, 3, 5, 7}
	dst2 := vector.NewLen(vector.I64, 8)
	k(dst2, a, vector.I64Value(100), sel, 1, 3)
	if dst2.I64()[3] != 104 || dst2.I64()[5] != 106 || dst2.I64()[1] != 0 {
		t.Fatalf("sel window wrong: %v", dst2.I64())
	}
}

// TestPairKernelsMatchComposition: (x*c1)+c2 as two constant maps, the
// second in place on the first's output, equals the composition through a
// separate intermediate buffer.
func TestPairKernelsMatchComposition(t *testing.T) {
	mul, _ := MapBinVS(vector.I64, nir.AMul)
	add, _ := MapBinVS(vector.I64, nir.AAdd)
	f := func(xs []int64, c1, c2 int16) bool {
		if len(xs) == 0 {
			return true
		}
		a := vector.FromI64(append([]int64(nil), xs...))
		n := a.Len()
		s1, s2 := vector.I64Value(int64(c1)), vector.I64Value(int64(c2))
		got := vector.NewLen(vector.I64, n)
		mul(got, a, s1, nil, 0, n)
		add(got, got, s2, nil, 0, n)

		tmp := vector.NewLen(vector.I64, n)
		want := vector.NewLen(vector.I64, n)
		mul(tmp, a, s1, nil, 0, n)
		add(want, tmp, s2, nil, 0, n)
		return got.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldKernels(t *testing.T) {
	a := vector.FromI64([]int64{3, 1, 4, 1, 5})
	cases := []struct {
		op   nir.ArithOp
		init int64
		want int64
	}{
		{nir.AAdd, 0, 14}, {nir.AMul, 1, 60}, {nir.AMin, 99, 1}, {nir.AMax, -1, 5},
		{nir.AAnd, -1, 0}, {nir.AOr, 0, 7}, {nir.AXor, 0, 2},
	}
	for _, c := range cases {
		k, ok := Fold(vector.I64, c.op)
		if !ok {
			t.Fatalf("missing fold.%v", c.op)
		}
		got := k(vector.I64Value(c.init), a, nil, 0, a.Len())
		if got.I != c.want {
			t.Errorf("fold.%v = %d, want %d", c.op, got.I, c.want)
		}
	}
	// Windowed fold (morsel use case).
	k, _ := Fold(vector.I64, nir.AAdd)
	if got := k(vector.I64Value(0), a, nil, 1, 4); got.I != 6 {
		t.Errorf("windowed fold = %d, want 6", got.I)
	}
}

func TestSelectFromBoolAndIota(t *testing.T) {
	mask := vector.FromBool([]bool{true, false, true, true})
	sel := SelectFromBool(mask, nil)
	if len(sel) != 3 || sel[2] != 3 {
		t.Fatalf("sel = %v", sel)
	}
	sub := SelectFromBool(mask, vector.Sel{0, 1})
	if len(sub) != 1 || sub[0] != 0 {
		t.Fatalf("sub = %v", sub)
	}
	v := vector.NewLen(vector.I64, 4)
	Iota(v, 10)
	if v.I64()[3] != 13 {
		t.Fatalf("iota = %v", v)
	}
}

func TestGatherKinds(t *testing.T) {
	for _, k := range []vector.Kind{vector.I32, vector.I64, vector.F64, vector.Str} {
		data := vector.NewLen(k, 4)
		for i := 0; i < 4; i++ {
			if k == vector.Str {
				data.Set(i, vector.StrValue(string(rune('a'+i))))
			} else {
				data.Set(i, vector.IntValue(vector.I64, int64(i*10)))
			}
		}
		idx := vector.FromI64([]int64{3, 0, 99}) // 99 out of range → zero
		dst := vector.NewLen(k, 3)
		Gather(dst, data, idx, nil)
		if !dst.Get(0).Equal(data.Get(3)) || !dst.Get(1).Equal(data.Get(0)) {
			t.Errorf("%v gather wrong: %v", k, dst)
		}
	}
}

func TestMergeJoinPositions(t *testing.T) {
	a := vector.FromI64([]int64{1, 2, 2, 5})
	b := vector.FromI64([]int64{2, 2, 5, 7})
	li, ri := MergeJoin(a, b)
	// 2×2 cross product for key 2 plus one match for 5 = 5 pairs.
	if len(li) != 5 || len(ri) != 5 {
		t.Fatalf("merge join pairs = %d/%d, want 5/5", len(li), len(ri))
	}
	for i := range li {
		if !a.Get(int(li[i])).Equal(b.Get(int(ri[i]))) {
			t.Fatalf("pair %d keys differ", i)
		}
	}
}

func TestConflictOfPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown conflict must panic")
		}
	}()
	ConflictOf("frobnicate")
}

// TestSelectIntoAliasing: the in-place selection kernels must narrow a
// selection into its own storage — dst aliasing sel — with the result the
// allocating forms return, for every kind and comparison.
func TestSelectIntoAliasing(t *testing.T) {
	for key, into := range selCmpInto {
		a := fromValues(key.K, edges(key.K))
		var every vector.Sel
		for i := 0; i < a.Len(); i += 2 {
			every = append(every, int32(i))
		}
		alloc, _ := SelectCmp(key.K, key.Op)
		for _, s := range edges(key.K) {
			for _, sel := range []vector.Sel{nil, every} {
				want := alloc(a, s, sel, 0, Span(a, sel))
				buf, src := aliased(sel, a.Len())
				got := into(buf, a, s, src, 0, Span(a, sel))
				if !slices.Equal(got, want) {
					t.Fatalf("%v %v s=%v sel=%v: got %v, want %v", key.K, key.Op, s, sel, got, want)
				}
				if len(got) > 0 && &got[0] != &buf[:1][0] {
					t.Fatalf("%v %v: result does not reuse dst", key.K, key.Op)
				}
			}
		}
	}
	mask := vector.FromBool([]bool{true, false, true, true, false, false, true, true, false})
	for _, sel := range []vector.Sel{nil, {0, 1, 3, 4, 7, 8}} {
		want := SelectFromBool(mask, sel)
		buf, src := aliased(sel, mask.Len())
		if got := SelectFromBoolInto(buf, mask, src); !slices.Equal(got, want) || &got[0] != &buf[:1][0] {
			t.Fatalf("SelectFromBoolInto sel=%v: got %v, want %v", sel, got, want)
		}
	}
}

// TestEmptySelectionIsNotNil: narrowing an empty selection into a nil dst
// yields an empty selection, never nil, which would select every row.
func TestEmptySelectionIsNotNil(t *testing.T) {
	a := vector.FromI64([]int64{1, 2, 3})
	for key, into := range selCmpInto {
		v := fromValues(key.K, edges(key.K))
		if got := into(nil, v, v.Get(0), vector.Sel{}, 0, 0); got == nil {
			t.Fatalf("%v %v: empty selection narrowed to nil", key.K, key.Op)
		}
	}
	lt, _ := SelectCmp(vector.I64, nir.CLt)
	if got := lt(a, vector.I64Value(0), vector.Sel{}, 0, 0); got == nil {
		t.Fatal("SelectCmp: empty selection narrowed to nil")
	}
	mask := vector.FromBool([]bool{true, true, true})
	if got := SelectFromBoolInto(nil, mask, vector.Sel{}); got == nil {
		t.Fatal("SelectFromBoolInto: empty selection narrowed to nil")
	}
	if got := SelectFromBoolInto(nil, vector.FromBool([]bool{false, false}), nil); got == nil {
		t.Fatal("SelectFromBoolInto: no row kept, but the result is nil")
	}
}

// aliased copies sel into a buffer of capacity n and returns the buffer as
// the destination and as the source selection (nil when sel is nil).
func aliased(sel vector.Sel, n int) (dst, src vector.Sel) {
	dst = append(make(vector.Sel, 0, n), sel...)
	if sel != nil {
		src = dst
	}
	return dst, src
}

// TestBind: every operand shape of every element-wise opcode binds to the
// kernel that computes it, and instructions without one are rejected.
func TestBind(t *testing.T) {
	prog := &nir.Program{Regs: []nir.RegInfo{
		{Kind: vector.I64}, {Kind: vector.I64},
		{Kind: vector.I64, Scalar: true}, {Kind: vector.I64, Scalar: true},
		{Kind: vector.F64},
	}}
	a, b := Arg{Vec: vector.FromI64([]int64{1, 2, 3})}, Arg{Vec: vector.FromI64([]int64{10, 2, 1})}
	s := Arg{Val: vector.I64Value(2)}
	bin := func(op nir.OpCode, x, y nir.Reg) nir.Instr {
		return nir.Instr{Op: op, A: x, B: y, Arith: nir.ASub, Cmp: nir.CLt, Kind: vector.I64}
	}
	for _, c := range []struct {
		in   nir.Instr
		a, b Arg
		want string
	}{
		{bin(nir.OpMapBin, 0, 1), a, b, "[-9 0 2]"},
		{bin(nir.OpMapBin, 0, 2), a, s, "[-1 0 1]"},
		{bin(nir.OpMapBin, 2, 1), s, b, "[-8 0 1]"},
		{bin(nir.OpMapCmp, 0, 1), a, b, "[true false false]"},
		{bin(nir.OpMapCmp, 0, 2), a, s, "[true false false]"},
		{bin(nir.OpMapCmp, 2, 1), s, b, "[true false false]"},
		{nir.Instr{Op: nir.OpMapUn, A: 0, B: nir.NoReg, Unary: nir.UNeg, Kind: vector.I64}, a, Arg{}, "[-1 -2 -3]"},
		{nir.Instr{Op: nir.OpCast, A: 0, B: nir.NoReg, Kind: vector.F64}, a, Arg{}, "[1 2 3]"},
	} {
		k, err := Bind(prog, &c.in)
		if err != nil {
			t.Fatalf("%s: %v", &c.in, err)
		}
		dst := vector.NewLen(k.Out(), 3)
		k.Run(dst, c.a, c.b, nil, 0, 3)
		got := make([]string, dst.Len())
		for i := range got {
			got[i] = dst.Get(i).String()
		}
		if fmt.Sprint(got) != c.want {
			t.Errorf("%s: got %v, want %s", &c.in, got, c.want)
		}
	}
	for _, in := range []nir.Instr{
		bin(nir.OpMapBin, 2, 3), // two scalars: a bin.s, not a map
		{Op: nir.OpMapBin, A: 4, B: 4, Arith: nir.AMod, Kind: vector.F64},
		{Op: nir.OpCast, A: 2, B: nir.NoReg, Kind: vector.F64}, // a scalar cast
		{Op: nir.OpFold, A: 2, B: 0, Arith: nir.AAdd, Kind: vector.I64},
	} {
		if _, err := Bind(prog, &in); err == nil {
			t.Errorf("%s: bound, want an error", &in)
		}
	}
}
