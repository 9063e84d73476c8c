package nir

import (
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/vector"
)

func normalize(t *testing.T, src string, kinds map[string]vector.Kind) *Program {
	t.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	np, err := Normalize(prog, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

func i64Kinds(names ...string) map[string]vector.Kind {
	m := map[string]vector.Kind{}
	for _, n := range names {
		m[n] = vector.I64
	}
	return m
}

func countOps(p *Program, op OpCode) int {
	n := 0
	p.Walk(func(in *Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

func TestConstantNarrowingAvoidsCasts(t *testing.T) {
	// i32 column compared/added with a literal that fits i32: the constant
	// must narrow instead of the vector widening.
	np := normalize(t, `
let xs = read 0 d 16
let a = map (\x -> x + 1000) xs
write o 0 a
`, map[string]vector.Kind{"d": vector.I32, "o": vector.I32})
	if got := countOps(np, OpCast); got != 0 {
		t.Fatalf("narrowable constant still introduced %d casts:\n%s", got, np)
	}
	var mapKind vector.Kind
	np.Walk(func(in *Instr) {
		if in.Op == OpMapBin {
			mapKind = in.Kind
		}
	})
	if mapKind != vector.I32 {
		t.Fatalf("map runs in %v, want i32", mapKind)
	}
}

func TestWideningCastInsertedWhenConstantTooBig(t *testing.T) {
	np := normalize(t, `
let xs = read 0 d 16
let a = map (\x -> x + 3000000000) xs
write o 0 a
`, map[string]vector.Kind{"d": vector.I32, "o": vector.I64})
	if got := countOps(np, OpCast); got == 0 {
		t.Fatalf("3e9 does not fit i32; a widening cast is required:\n%s", np)
	}
}

func TestMixedIntFloatPromotesToF64(t *testing.T) {
	np := normalize(t, `
let xs = read 0 d 16
let a = map (\x -> x * 1.5) xs
write o 0 a
`, map[string]vector.Kind{"d": vector.I64, "o": vector.F64})
	var kinds []vector.Kind
	np.Walk(func(in *Instr) {
		if in.Op == OpMapBin {
			kinds = append(kinds, in.Kind)
		}
	})
	if len(kinds) != 1 || kinds[0] != vector.F64 {
		t.Fatalf("int*float should compute in f64: %v\n%s", kinds, np)
	}
}

func TestAssignRedirectsDefiningInstruction(t *testing.T) {
	// `i := i + 1` must retarget the add into i's register, not emit a move.
	np := normalize(t, `
mut i
i := 0
loop {
  i := i + 1
  if i >= 3 then break
}
`, nil)
	// Constant initializers keep their move (the const register may be
	// shared/retyped); the expression assignment must redirect.
	moves := countOps(np, OpMove)
	if moves != 1 {
		t.Fatalf("want exactly the const-init move, got %d:\n%s", moves, np)
	}
	// The add must write i's named register directly.
	redirected := false
	np.Walk(func(in *Instr) {
		if in.Op == OpBinS && in.Arith == AAdd && np.Reg(in.Dst).Name == "i" {
			redirected = true
		}
	})
	if !redirected {
		t.Fatalf("i := i + 1 should retarget the add into i's register:\n%s", np)
	}
}

func TestMoveEmittedForAliasAssign(t *testing.T) {
	np := normalize(t, `
mut a
mut b
a := 1
b := 2
b := a
`, nil)
	if countOps(np, OpMove) == 0 {
		t.Fatalf("x := y needs a move:\n%s", np)
	}
}

func TestExternalsSortedAndTyped(t *testing.T) {
	np := normalize(t, `
let x = read 0 zeta 4
let y = read 0 alpha 4
write mid 0 (map (\a b -> a+b) x y)
`, map[string]vector.Kind{"zeta": vector.I64, "alpha": vector.I32, "mid": vector.I64})
	names := []string{}
	for _, e := range np.Externals {
		names = append(names, e.Name)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("externals = %v, want %v", names, want)
		}
	}
	if np.ExternalKind("alpha") != vector.I32 {
		t.Fatal("ExternalKind")
	}
	if np.ExternalKind("nope") != vector.Invalid {
		t.Fatal("missing external should be Invalid")
	}
}

func TestInstructionIDsAreDense(t *testing.T) {
	np := normalize(t, dsl.Figure2Source, i64Kinds("some_data", "v", "w"))
	seen := map[int]bool{}
	np.Walk(func(in *Instr) {
		if seen[in.ID] {
			t.Fatalf("duplicate instruction ID %d", in.ID)
		}
		seen[in.ID] = true
		if in.ID < 0 || in.ID >= np.NumInstrs {
			t.Fatalf("ID %d out of range [0,%d)", in.ID, np.NumInstrs)
		}
	})
	if len(seen) != np.NumInstrs {
		t.Fatalf("IDs %d, NumInstrs %d", len(seen), np.NumInstrs)
	}
}

func TestProgramStringRendering(t *testing.T) {
	np := normalize(t, dsl.Figure2Source, i64Kinds("some_data", "v", "w"))
	s := np.String()
	for _, frag := range []string{"loop {", "break", "select.cmp", "condense", "external some_data"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("program rendering misses %q:\n%s", frag, s)
		}
	}
}

func TestGeneralPredicateUsesSelectOverMask(t *testing.T) {
	np := normalize(t, `
let xs = read 0 d 16
let f = filter (\x -> x % 2 == 0) xs
write o 0 (condense f)
`, i64Kinds("d", "o"))
	if countOps(np, OpSelectCmp) != 0 {
		t.Fatalf("complex predicate must not use the fused select:\n%s", np)
	}
	if countOps(np, OpSelect) != 1 {
		t.Fatalf("want one general select:\n%s", np)
	}
}

func TestConstCmpFlippedIntoFusedSelect(t *testing.T) {
	np := normalize(t, `
let xs = read 0 d 16
let f = filter (\x -> 10 > x) xs
write o 0 (condense f)
`, i64Kinds("d", "o"))
	found := false
	np.Walk(func(in *Instr) {
		if in.Op == OpSelectCmp {
			found = true
			if in.Cmp != CLt {
				t.Fatalf("10 > x must become x < 10, got %v", in.Cmp)
			}
		}
	})
	if !found {
		t.Fatalf("const-on-left comparison should fuse:\n%s", np)
	}
}

func TestCmpNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{CEq: CNe, CNe: CEq, CLt: CGe, CLe: CGt, CGt: CLe, CGe: CLt}
	for op, want := range pairs {
		if got := op.Negate(); got != want {
			t.Errorf("%v.Negate() = %v, want %v", op, got, want)
		}
	}
}

func TestInstrUsesAndString(t *testing.T) {
	in := &Instr{Op: OpMapBin, Dst: 3, A: 1, B: 2, C: NoReg, Arith: AAdd, Kind: vector.I64}
	uses := in.Uses()
	if len(uses) != 2 || uses[0] != 1 || uses[1] != 2 {
		t.Fatalf("uses = %v", uses)
	}
	if s := in.String(); !strings.Contains(s, "map.bin.add<i64>") {
		t.Fatalf("render = %q", s)
	}
	sc := &Instr{Op: OpBinS, Dst: 0, A: 1, B: 2, C: NoReg, Cmp: CGe, Kind: vector.I64}
	if s := sc.String(); !strings.Contains(s, "bin.s.ge") {
		t.Fatalf("scalar cmp render = %q", s)
	}
}

func TestFoldRequiresFlowArgument(t *testing.T) {
	prog, err := dsl.Parse(`
mut s
s := 1
let r = fold (\acc x -> acc + x) 0 s
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Normalize(prog, nil); err == nil || !strings.Contains(err.Error(), "flow") {
		t.Fatalf("fold over a scalar must fail, got %v", err)
	}
}

func TestNormalizeRejectsUncheckedProgram(t *testing.T) {
	prog, err := dsl.Parse(`x := 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Normalize(prog, nil); err == nil {
		t.Fatal("unchecked program must be rejected")
	}
}

func TestConjunctionChainsSelections(t *testing.T) {
	np := normalize(t, `
let xs = read 0 d 16
let f = filter (\x -> (x >= 3) && ((x < 9) && (x % 2 == 0))) xs
write o 0 (condense f)
`, i64Kinds("d", "o"))
	if countOps(np, OpSelectCmp) != 2 || countOps(np, OpSelect) != 1 {
		t.Fatalf("want two chained select.cmp and one select:\n%s", np)
	}
	var prev Reg = NoReg
	np.Walk(func(in *Instr) {
		if in.Op != OpSelectCmp && in.Op != OpSelect {
			return
		}
		if prev != NoReg && in.A != prev {
			t.Fatalf("%s does not narrow the previous selection r%d:\n%s", in, prev, np)
		}
		prev = in.Dst
	})
}
