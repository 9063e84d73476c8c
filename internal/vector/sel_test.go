package vector

import (
	"testing"
	"testing/quick"
)

func TestAllSel(t *testing.T) {
	s := AllSel(4)
	if len(s) != 4 || s[0] != 0 || s[3] != 3 {
		t.Errorf("AllSel(4) = %v", s)
	}
	if err := s.Validate(4); err != nil {
		t.Error(err)
	}
}

func TestSelCount(t *testing.T) {
	if Sel(nil).Count(7) != 7 {
		t.Error("nil sel counts all")
	}
	if (Sel{1, 3}).Count(7) != 2 {
		t.Error("explicit sel counts len")
	}
}

func TestSelValidate(t *testing.T) {
	if err := (Sel{0, 2, 5}).Validate(6); err != nil {
		t.Error(err)
	}
	if err := (Sel{2, 1}).Validate(6); err == nil {
		t.Error("unsorted must fail")
	}
	if err := (Sel{0, 0}).Validate(6); err == nil {
		t.Error("duplicate must fail")
	}
	if err := (Sel{6}).Validate(6); err == nil {
		t.Error("out of range must fail")
	}
	if err := (Sel{-1}).Validate(6); err == nil {
		t.Error("negative must fail")
	}
}

func TestIntersect(t *testing.T) {
	a := Sel{0, 2, 4, 6}
	b := Sel{2, 3, 4, 7}
	got := Intersect(a, b, 8)
	want := Sel{2, 4}
	if len(got) != len(want) || got[0] != 2 || got[1] != 4 {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if Intersect(nil, nil, 5) != nil {
		t.Error("nil∩nil = nil")
	}
	if got := Intersect(nil, b, 8); len(got) != len(b) {
		t.Error("nil∩b = b")
	}
	if got := Intersect(a, nil, 8); len(got) != len(a) {
		t.Error("a∩nil = a")
	}
}

func TestUnionComplement(t *testing.T) {
	a := Sel{0, 2}
	b := Sel{1, 2, 5}
	u := Union(a, b)
	want := Sel{0, 1, 2, 5}
	if len(u) != len(want) {
		t.Fatalf("Union = %v", u)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("Union = %v, want %v", u, want)
		}
	}
	c := Complement(u, 6)
	wantC := Sel{3, 4}
	if len(c) != 2 || c[0] != 3 || c[1] != 4 {
		t.Errorf("Complement = %v, want %v", c, wantC)
	}
	if len(Complement(nil, 4)) != 0 {
		t.Error("complement of all-selected is empty")
	}
}

func TestMaskRoundTrip(t *testing.T) {
	mask := []bool{true, false, true, true, false}
	s := SelFromMask(mask)
	if len(s) != 3 || s[0] != 0 || s[1] != 2 || s[2] != 3 {
		t.Fatalf("SelFromMask = %v", s)
	}
	back := MaskFromSel(s, 5)
	for i := range mask {
		if mask[i] != back[i] {
			t.Fatalf("mask round trip: %v vs %v", mask, back)
		}
	}
	all := MaskFromSel(nil, 3)
	if !all[0] || !all[2] {
		t.Error("nil sel mask should be all true")
	}
}

func TestCondenseVector(t *testing.T) {
	v := FromI64([]int64{10, 11, 12, 13})
	out := Condense(v, Sel{1, 3})
	if out.Len() != 2 || out.I64()[0] != 11 || out.I64()[1] != 13 {
		t.Errorf("Condense = %v", out)
	}
	clone := Condense(v, nil)
	if !clone.Equal(v) {
		t.Error("Condense(nil) clones")
	}
	for _, k := range []Kind{Bool, I8, I16, I32, F64, Str} {
		w := NewLen(k, 4)
		got := Condense(w, Sel{0, 2})
		if got.Len() != 2 || got.Kind() != k {
			t.Errorf("Condense %v broken", k)
		}
	}
}

// TestCondenseInto: the selected rows land in the caller's buffer, which is
// resized (and grown only when short), and Condense agrees with it.
func TestCondenseInto(t *testing.T) {
	v := FromI64([]int64{10, 11, 12, 13, 14})
	dst := New(I64, 0, 8)
	buf := dst.I64()[:8]
	if got := CondenseInto(dst, v, Sel{0, 2, 4}); got != dst || !dst.Equal(FromI64([]int64{10, 12, 14})) {
		t.Fatalf("CondenseInto = %v", got)
	}
	if &dst.I64()[0] != &buf[0] {
		t.Error("CondenseInto reallocated a buffer with enough capacity")
	}
	CondenseInto(dst, v, nil)
	if !dst.Equal(v) {
		t.Fatalf("CondenseInto(nil sel) = %v, want a copy of %v", dst, v)
	}
	if n := testing.AllocsPerRun(100, func() { CondenseInto(dst, v, Sel{1, 3}) }); n != 0 {
		t.Errorf("CondenseInto allocated %v times per call", n)
	}
	if !Condense(v, Sel{1, 3}).Equal(CondenseInto(New(I64, 0, 0), v, Sel{1, 3})) {
		t.Error("Condense and CondenseInto disagree")
	}
	defer func() {
		if recover() == nil {
			t.Error("CondenseInto across kinds should panic")
		}
	}()
	CondenseInto(New(F64, 0, 0), v, nil)
}

// Property: mask→sel→mask is the identity.
func TestMaskSelRoundTripProperty(t *testing.T) {
	f := func(mask []bool) bool {
		s := SelFromMask(mask)
		back := MaskFromSel(s, len(mask))
		for i := range mask {
			if mask[i] != back[i] {
				return false
			}
		}
		return s.Validate(len(mask)+1) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intersect(s, Complement(s)) is empty and Union covers [0,n).
func TestSelAlgebraProperty(t *testing.T) {
	f := func(mask []bool) bool {
		n := len(mask)
		s := SelFromMask(mask)
		c := Complement(s, n)
		if len(Intersect(s, c, n)) != 0 {
			return false
		}
		u := Union(s, c)
		return len(u) == n && u.Validate(n) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
