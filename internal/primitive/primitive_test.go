package primitive

import (
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

func TestPairKernelsMatchComposition(t *testing.T) {
	f := func(xs []int64, c1, c2 int16) bool {
		if len(xs) == 0 {
			return true
		}
		a := vector.FromI64(append([]int64(nil), xs...))
		n := a.Len()
		// (x*c1)+c2 via pair kernel vs two single kernels.
		pair, ok := MapPair(vector.I64, nir.AMul, nir.AAdd)
		if !ok {
			return false
		}
		got := vector.NewLen(vector.I64, n)
		pair(got, a, vector.I64Value(int64(c1)), vector.I64Value(int64(c2)), nil, 0, n)

		mul, _ := MapBinVS(vector.I64, nir.AMul)
		add, _ := MapBinVS(vector.I64, nir.AAdd)
		tmp := vector.NewLen(vector.I64, n)
		want := vector.NewLen(vector.I64, n)
		mul(tmp, a, vector.I64Value(int64(c1)), nil, 0, n)
		add(want, tmp, vector.I64Value(int64(c2)), nil, 0, n)
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
