package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Bool: "bool", I8: "i8", I16: "i16", I32: "i32", I64: "i64", F64: "f64", Str: "str",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Bool, I8, I16, I32, I64, F64, Str} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("banana"); err == nil {
		t.Error("ParseKind(banana) should fail")
	}
	if _, err := ParseKind("invalid"); err == nil {
		t.Error("ParseKind(invalid) should fail: Invalid is not a usable kind")
	}
}

func TestKindWidth(t *testing.T) {
	widths := map[Kind]int{Bool: 1, I8: 1, I16: 2, I32: 4, I64: 8, F64: 8, Str: 16}
	for k, w := range widths {
		if k.Width() != w {
			t.Errorf("%v.Width() = %d, want %d", k, k.Width(), w)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{I8, I16, I32, I64} {
		if !k.IsInteger() || !k.IsNumeric() {
			t.Errorf("%v should be integer+numeric", k)
		}
	}
	if F64.IsInteger() {
		t.Error("f64 is not integer")
	}
	if !F64.IsNumeric() {
		t.Error("f64 is numeric")
	}
	for _, k := range []Kind{Bool, Str} {
		if k.IsNumeric() {
			t.Errorf("%v should not be numeric", k)
		}
	}
}

func TestNewAndAccessors(t *testing.T) {
	for _, k := range []Kind{Bool, I8, I16, I32, I64, F64, Str} {
		v := NewLen(k, 5)
		if v.Kind() != k || v.Len() != 5 {
			t.Fatalf("NewLen(%v,5) got kind=%v len=%d", k, v.Kind(), v.Len())
		}
	}
	v := FromI64([]int64{1, 2, 3})
	if v.I64()[1] != 2 {
		t.Error("FromI64 accessor broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-kind accessor should panic")
		}
	}()
	_ = v.F64()
}

func TestSetLenGrow(t *testing.T) {
	v := New(I64, 2, 4)
	v.I64()[0], v.I64()[1] = 10, 20
	v.SetLen(8)
	if v.Len() != 8 {
		t.Fatalf("len=%d", v.Len())
	}
	if v.I64()[0] != 10 || v.I64()[1] != 20 {
		t.Error("grow lost data")
	}
	if v.I64()[7] != 0 {
		t.Error("grown area should be zeroed")
	}
	v.SetLen(1)
	if v.Len() != 1 {
		t.Error("shrink failed")
	}
}

func TestGetSetAllKinds(t *testing.T) {
	cases := []struct {
		k Kind
		x Value
	}{
		{Bool, BoolValue(true)},
		{I8, IntValue(I8, -5)},
		{I16, IntValue(I16, 300)},
		{I32, IntValue(I32, -70000)},
		{I64, I64Value(1 << 40)},
		{F64, F64Value(3.25)},
		{Str, StrValue("hello")},
	}
	for _, c := range cases {
		v := NewLen(c.k, 3)
		v.Set(1, c.x)
		got := v.Get(1)
		if !got.Equal(c.x) {
			t.Errorf("%v: Get(Set(%v)) = %v", c.k, c.x, got)
		}
	}
}

func TestValueString(t *testing.T) {
	if s := I64Value(42).String(); s != "42" {
		t.Errorf("got %q", s)
	}
	if s := StrValue("a").String(); s != `"a"` {
		t.Errorf("got %q", s)
	}
	if s := BoolValue(true).String(); s != "true" {
		t.Errorf("got %q", s)
	}
	if s := (Value{}).String(); s != "<invalid>" {
		t.Errorf("got %q", s)
	}
}

func TestValueEqualNaN(t *testing.T) {
	a, b := F64Value(math.NaN()), F64Value(math.NaN())
	if !a.Equal(b) {
		t.Error("NaN should equal NaN under Value.Equal (test semantics)")
	}
	if F64Value(1).Equal(I64Value(1)) {
		t.Error("different kinds are unequal")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromI32([]int32{1, 2, 3})
	w := v.Clone()
	w.I32()[0] = 99
	if v.I32()[0] != 1 {
		t.Error("clone shares storage")
	}
	if !v.Equal(FromI32([]int32{1, 2, 3})) {
		t.Error("Equal broken")
	}
}

func TestSliceView(t *testing.T) {
	v := FromI64([]int64{0, 1, 2, 3, 4})
	s := v.Slice(1, 4)
	if s.Len() != 3 || s.I64()[0] != 1 {
		t.Fatalf("slice wrong: %v", s)
	}
	s.I64()[0] = 42
	if v.I64()[1] != 42 {
		t.Error("slice should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Slice should panic")
		}
	}()
	v.Slice(3, 10)
}

// TestSliceGrowthDoesNotWriteParent: a view's capacity ends at its upper
// bound, so growing the view reallocates rather than overwriting the
// parent's elements past the view — which matters once scans hand out
// views of stored table columns.
func TestSliceGrowthDoesNotWriteParent(t *testing.T) {
	v := FromI64([]int64{1, 2, 3, 4})
	s := v.Slice(0, 2)
	s.AppendValue(I64Value(9))
	if !v.Equal(FromI64([]int64{1, 2, 3, 4})) {
		t.Fatalf("AppendValue on a view wrote through to the parent: %v", v)
	}
	if !s.Equal(FromI64([]int64{1, 2, 9})) {
		t.Fatalf("grown view = %v, want [1 2 9]", s)
	}
	w := v.Slice(1, 3)
	w.SetLen(3)
	w.AppendVector(FromI64([]int64{7, 8}))
	if !v.Equal(FromI64([]int64{1, 2, 3, 4})) {
		t.Fatalf("SetLen/AppendVector on a view wrote through to the parent: %v", v)
	}
	for _, k := range []Kind{Bool, I8, I16, I32, F64, Str} {
		p := NewLen(k, 4)
		view := p.Slice(1, 2)
		if view.Cap() != 1 {
			t.Errorf("%v view capacity = %d, want 1", k, view.Cap())
		}
	}
}

// TestSliceIntoReusesHeader: SliceInto repoints an existing header, of any
// previous kind, without allocating.
func TestSliceIntoReusesHeader(t *testing.T) {
	v := FromF64([]float64{1, 2, 3, 4})
	h := FromStr([]string{"stale"})
	if got := v.SliceInto(h, 1, 3); got != h || !h.Equal(FromF64([]float64{2, 3})) {
		t.Fatalf("SliceInto = %v, want f64[2 3] in the same header", got)
	}
	if n := testing.AllocsPerRun(100, func() { v.SliceInto(h, 0, 4) }); n != 0 {
		t.Errorf("SliceInto allocated %v times per call", n)
	}
}

func TestCopyFromAppendVector(t *testing.T) {
	a := FromF64([]float64{1, 2, 3})
	b := NewLen(F64, 3)
	b.CopyFrom(0, a, 0, 3)
	if !a.Equal(b) {
		t.Error("CopyFrom mismatch")
	}
	a.AppendVector(b)
	if a.Len() != 6 || a.F64()[5] != 3 {
		t.Error("AppendVector broken")
	}
}

func TestAppendValueFill(t *testing.T) {
	v := New(Str, 0, 0)
	v.AppendValue(StrValue("x"))
	v.AppendValue(StrValue("y"))
	if v.Len() != 2 || v.Str()[1] != "y" {
		t.Error("AppendValue broken")
	}
	v.Fill(StrValue("z"))
	if v.Str()[0] != "z" || v.Str()[1] != "z" {
		t.Error("Fill broken")
	}
}

func TestConvert(t *testing.T) {
	v := FromI64([]int64{1, -2, 300})
	w, err := v.Convert(I16)
	if err != nil {
		t.Fatal(err)
	}
	if w.I16()[2] != 300 {
		t.Error("convert to i16 wrong")
	}
	f, err := v.Convert(F64)
	if err != nil || f.F64()[1] != -2 {
		t.Errorf("convert to f64 wrong: %v %v", f, err)
	}
	back, err := f.Convert(I64)
	if err != nil || back.I64()[2] != 300 {
		t.Errorf("f64→i64 wrong: %v %v", back, err)
	}
	if _, err := FromStr([]string{"a"}).Convert(I64); err == nil {
		t.Error("str→i64 must fail")
	}
	same, err := v.Convert(I64)
	if err != nil || !same.Equal(v) {
		t.Error("identity convert should clone")
	}
}

func TestFitsInAndRanges(t *testing.T) {
	v := FromI64([]int64{100, -100})
	if !v.FitsIn(I8) {
		t.Error("±100 fits i8")
	}
	v2 := FromI64([]int64{1000})
	if v2.FitsIn(I8) {
		t.Error("1000 does not fit i8")
	}
	if !v2.FitsIn(I16) {
		t.Error("1000 fits i16")
	}
	if FromF64([]float64{1}).FitsIn(I8) {
		t.Error("FitsIn only applies to integer vectors")
	}
	if MinIntKind(0, 100) != I8 {
		t.Error("MinIntKind(0,100)")
	}
	if MinIntKind(0, 40000) != I32 {
		t.Error("MinIntKind(0,40000)")
	}
	if MinIntKind(math.MinInt64, 0) != I64 {
		t.Error("MinIntKind full range")
	}
}

func TestVectorString(t *testing.T) {
	v := FromI64([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s := v.String()
	if s == "" || s[0:3] != "i64" {
		t.Errorf("String() = %q", s)
	}
}

func TestBytes(t *testing.T) {
	if FromI32([]int32{1, 2, 3}).Bytes() != 12 {
		t.Error("Bytes i32")
	}
	if FromF64([]float64{1}).Bytes() != 8 {
		t.Error("Bytes f64")
	}
}

// Property: Convert to a wider integer kind and back is the identity.
func TestConvertRoundTripProperty(t *testing.T) {
	f := func(xs []int16) bool {
		v := FromI16(append([]int16(nil), xs...))
		wide, err := v.Convert(I64)
		if err != nil {
			return false
		}
		back, err := wide.Convert(I16)
		if err != nil {
			return false
		}
		return back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clone is always Equal, Slice(0,len) preserves contents.
func TestCloneSliceProperty(t *testing.T) {
	f := func(xs []int64) bool {
		v := FromI64(append([]int64(nil), xs...))
		if !v.Clone().Equal(v) {
			return false
		}
		return v.Slice(0, v.Len()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
