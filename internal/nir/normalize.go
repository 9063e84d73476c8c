package nir

import (
	"fmt"

	"repro/internal/dsl"
	"repro/internal/vector"
)

// maxInlineDepth bounds user-function inlining to reject recursion.
const maxInlineDepth = 32

// Normalize lowers a checked DSL program into normalized IR. externals maps
// every external array name to its element kind; read/gather/write/scatter
// type against it.
//
// Normalization performs the decomposition the paper describes in §III-A:
// complex lambda bodies are broken into chains of single-operation
// instructions for which pre-compiled vectorized kernels exist. It also
// applies two local rewrites:
//
//   - comparison-against-constant predicates inside filter fuse into the
//     dedicated OpSelectCmp selection primitive, and a conjunction of
//     predicates narrows the selection one conjunct at a time;
//   - integer constants narrow to the kind of the vector they combine with
//     when the value fits, avoiding spurious widening casts (the seed of the
//     compact-data-types refinement of [12]).
func Normalize(prog *dsl.Program, externals map[string]vector.Kind) (*Program, error) {
	if errs := dsl.Check(prog, keys(externals)); len(errs) > 0 {
		return nil, fmt.Errorf("nir: program does not check: %v", errs[0])
	}
	n := &normalizer{
		prog: prog,
		out:  &Program{},
		ext:  externals,
		vars: map[string]Reg{},
		mut:  map[string]bool{},
	}
	for name, kind := range externals {
		n.out.Externals = append(n.out.Externals, External{Name: name, Kind: kind})
	}
	sortExternals(n.out.Externals)
	body, err := n.stmts(prog.Body)
	if err != nil {
		return nil, err
	}
	n.out.Body = body
	n.out.NumInstrs = n.nextID
	return n.out, nil
}

func keys(m map[string]vector.Kind) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sortExternals(ext []External) {
	for i := 1; i < len(ext); i++ {
		for j := i; j > 0 && ext[j].Name < ext[j-1].Name; j-- {
			ext[j], ext[j-1] = ext[j-1], ext[j]
		}
	}
}

type normalizer struct {
	prog   *dsl.Program
	out    *Program
	ext    map[string]vector.Kind
	vars   map[string]Reg  // name → register (lexical; saved/restored per block)
	mut    map[string]bool // name → is mutable
	consts map[Reg]vector.Value
	nextID int
	depth  int // function inline depth
}

func (n *normalizer) errf(pos dsl.Position, format string, args ...any) error {
	return fmt.Errorf("nir: %s: %s", pos, fmt.Sprintf(format, args...))
}

func (n *normalizer) newReg(kind vector.Kind, scalar bool, name string) Reg {
	n.out.Regs = append(n.out.Regs, RegInfo{Kind: kind, Scalar: scalar, Name: name})
	return Reg(len(n.out.Regs) - 1)
}

func (n *normalizer) emit(list *[]Node, in *Instr) *Instr {
	in.ID = n.nextID
	n.nextID++
	if in.A == 0 && in.Op == OpConst {
		in.A = NoReg
	}
	*list = append(*list, &InstrNode{Instr: in})
	return in
}

// constReg emits OpConst and remembers the value for constant narrowing.
func (n *normalizer) constReg(list *[]Node, v vector.Value) Reg {
	r := n.newReg(v.Kind, true, "")
	if n.consts == nil {
		n.consts = map[Reg]vector.Value{}
	}
	n.consts[r] = v
	n.emit(list, &Instr{Op: OpConst, Dst: r, A: NoReg, B: NoReg, C: NoReg, Kind: v.Kind, Imm: v})
	return r
}

// ---------------------------------------------------------------------------
// Statements

func (n *normalizer) stmts(stmts []dsl.Stmt) ([]Node, error) {
	var out []Node
	saved := n.snapshotScope()
	defer n.restoreScope(saved)
	for _, s := range stmts {
		if err := n.stmt(&out, s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type scopeSnapshot struct {
	vars map[string]Reg
	mut  map[string]bool
}

func (n *normalizer) snapshotScope() scopeSnapshot {
	v := make(map[string]Reg, len(n.vars))
	for k, r := range n.vars {
		v[k] = r
	}
	m := make(map[string]bool, len(n.mut))
	for k, b := range n.mut {
		m[k] = b
	}
	return scopeSnapshot{v, m}
}

func (n *normalizer) restoreScope(s scopeSnapshot) {
	n.vars = s.vars
	n.mut = s.mut
}

func (n *normalizer) stmt(out *[]Node, s dsl.Stmt) error {
	switch s := s.(type) {
	case *dsl.MutDecl:
		n.mut[s.Name] = true
		n.vars[s.Name] = NoReg // allocated on first assignment
		return nil

	case *dsl.Assign:
		v, err := n.expr(out, s.Val)
		if err != nil {
			return err
		}
		cur, declared := n.vars[s.Name]
		if !declared || !n.mut[s.Name] {
			return n.errf(s.P, "assignment to non-mutable %q", s.Name)
		}
		vi := n.out.Regs[v]
		if cur == NoReg {
			// First assignment: try to redirect the defining instruction
			// into a fresh register named after the variable.
			dst := n.newReg(vi.Kind, vi.Scalar, s.Name)
			n.vars[s.Name] = dst
			n.emitMoveOrRedirect(out, dst, v)
			return nil
		}
		ci := n.out.Regs[cur]
		if ci.Kind != vi.Kind || ci.Scalar != vi.Scalar {
			return n.errf(s.P, "assignment changes type of %q from %s to %s", s.Name, ci, vi)
		}
		n.emitMoveOrRedirect(out, cur, v)
		return nil

	case *dsl.Let:
		v, err := n.expr(out, s.Val)
		if err != nil {
			return err
		}
		if n.out.Regs[v].Name == "" {
			n.out.Regs[v].Name = s.Name
		}
		n.vars[s.Name] = v
		n.mut[s.Name] = false
		return nil

	case *dsl.Loop:
		body, err := n.stmts(s.Body)
		if err != nil {
			return err
		}
		*out = append(*out, &LoopNode{Body: body})
		return nil

	case *dsl.Break:
		*out = append(*out, &BreakNode{})
		return nil

	case *dsl.If:
		cond, err := n.expr(out, s.Cond)
		if err != nil {
			return err
		}
		ci := n.out.Regs[cond]
		if !ci.Scalar || ci.Kind != vector.Bool {
			return n.errf(s.P, "if condition must be a scalar boolean, got %s", ci)
		}
		then, err := n.stmts(s.Then)
		if err != nil {
			return err
		}
		els, err := n.stmts(s.Else)
		if err != nil {
			return err
		}
		*out = append(*out, &IfNode{Cond: cond, Then: then, Else: els})
		return nil

	case *dsl.WriteStmt:
		kind, ok := n.ext[s.Dst]
		if !ok {
			return n.errf(s.P, "write to unbound external %q", s.Dst)
		}
		pos, err := n.scalarExpr(out, s.At)
		if err != nil {
			return err
		}
		val, err := n.expr(out, s.Val)
		if err != nil {
			return err
		}
		val, err = n.coerceVec(out, s.P, val, kind)
		if err != nil {
			return err
		}
		n.emit(out, &Instr{Op: OpWrite, Dst: NoReg, A: pos, B: val, C: NoReg, Kind: kind, Data: s.Dst})
		return nil

	case *dsl.ScatterStmt:
		kind, ok := n.ext[s.Dst]
		if !ok {
			return n.errf(s.P, "scatter to unbound external %q", s.Dst)
		}
		idx, err := n.expr(out, s.Idx)
		if err != nil {
			return err
		}
		val, err := n.expr(out, s.Val)
		if err != nil {
			return err
		}
		val, err = n.coerceVec(out, s.P, val, kind)
		if err != nil {
			return err
		}
		var conf Conflict
		switch s.Conflict {
		case "", "last":
			conf = ConfLast
		case "first":
			conf = ConfFirst
		case "sum":
			conf = ConfSum
		case "min":
			conf = ConfMin
		case "max":
			conf = ConfMax
		default:
			return n.errf(s.P, "unknown conflict function %q", s.Conflict)
		}
		n.emit(out, &Instr{Op: OpScatter, Dst: NoReg, A: idx, B: val, C: NoReg, Kind: kind, Data: s.Dst, Conf: conf})
		return nil

	case *dsl.ExprStmt:
		_, err := n.expr(out, s.E)
		return err
	}
	return fmt.Errorf("nir: unknown statement %T", s)
}

// emitMoveOrRedirect writes register v into dst, retargeting the defining
// instruction when it is the last one emitted (cheap SSA-avoidance for the
// common `x := <expr>` case).
func (n *normalizer) emitMoveOrRedirect(out *[]Node, dst, v Reg) {
	if len(*out) > 0 {
		if last, ok := (*out)[len(*out)-1].(*InstrNode); ok && last.Instr.Dst == v && !n.isConstReg(v) {
			last.Instr.Dst = dst
			return
		}
	}
	ri := n.out.Regs[v]
	n.emit(out, &Instr{Op: OpMove, Dst: dst, A: v, B: NoReg, C: NoReg, Kind: ri.Kind})
}

func (n *normalizer) isConstReg(r Reg) bool {
	_, ok := n.consts[r]
	return ok
}

// ---------------------------------------------------------------------------
// Expressions

// scalarExpr normalizes e and requires a scalar result.
func (n *normalizer) scalarExpr(out *[]Node, e dsl.Expr) (Reg, error) {
	r, err := n.expr(out, e)
	if err != nil {
		return NoReg, err
	}
	if !n.out.Regs[r].Scalar {
		return NoReg, n.errf(e.Pos(), "expected a scalar expression")
	}
	return r, nil
}

// coerceVec inserts a cast so r has element kind want.
func (n *normalizer) coerceVec(out *[]Node, pos dsl.Position, r Reg, want vector.Kind) (Reg, error) {
	ri := n.out.Regs[r]
	if ri.Kind == want {
		return r, nil
	}
	if !ri.Kind.IsNumeric() || !want.IsNumeric() {
		return NoReg, n.errf(pos, "cannot convert %s to %s", ri.Kind, want)
	}
	dst := n.newReg(want, ri.Scalar, "")
	n.emit(out, &Instr{Op: OpCast, Dst: dst, A: r, B: NoReg, C: NoReg, Kind: want})
	return dst, nil
}

// unifyNumeric returns the common kind for a binary numeric operation,
// preferring to narrow constant operands rather than widen vectors.
func unifyNumeric(a, b vector.Kind) vector.Kind {
	if a == b {
		return a
	}
	if a == vector.F64 || b == vector.F64 {
		return vector.F64
	}
	// widest integer wins
	order := map[vector.Kind]int{vector.I8: 1, vector.I16: 2, vector.I32: 3, vector.I64: 4}
	if order[a] >= order[b] {
		return a
	}
	return b
}

// narrowConst retypes a constant scalar register to kind k when the value
// fits, avoiding a widening cast on the vector side.
func (n *normalizer) narrowConst(r Reg, k vector.Kind) bool {
	v, ok := n.consts[r]
	if !ok || !v.Kind.IsInteger() || !k.IsInteger() {
		return false
	}
	lo, hi := vector.IntRange(k)
	if v.I < lo || v.I > hi {
		return false
	}
	n.out.Regs[r].Kind = k
	v.Kind = k
	n.consts[r] = v
	// Retype the defining OpConst instruction as well.
	return true
}

func (n *normalizer) retypeConstInstr(out []Node, r Reg, k vector.Kind) {
	for _, node := range out {
		if in, ok := node.(*InstrNode); ok && in.Instr.Op == OpConst && in.Instr.Dst == r {
			in.Instr.Kind = k
			v := in.Instr.Imm
			v.Kind = k
			in.Instr.Imm = v
		}
	}
}

func (n *normalizer) expr(out *[]Node, e dsl.Expr) (Reg, error) {
	switch e := e.(type) {
	case *dsl.Const:
		return n.constReg(out, e.Val), nil

	case *dsl.VarRef:
		if r, ok := n.vars[e.Name]; ok {
			if r == NoReg {
				return NoReg, n.errf(e.P, "mutable %q used before assignment", e.Name)
			}
			return r, nil
		}
		return NoReg, n.errf(e.P, "undefined variable %q (externals are only accessible through read/gather)", e.Name)

	case *dsl.Bin:
		return n.binExpr(out, e)

	case *dsl.Un:
		a, err := n.expr(out, e.E)
		if err != nil {
			return NoReg, err
		}
		ai := n.out.Regs[a]
		var uop UnaryOp
		kind := ai.Kind
		switch e.Op {
		case dsl.UnNeg, dsl.UnAbs:
			uop = UNeg
			if e.Op == dsl.UnAbs {
				uop = UAbs
			}
			if !kind.IsNumeric() {
				return NoReg, n.errf(e.P, "%s requires a numeric operand", uop)
			}
		case dsl.UnNot:
			uop = UNot
			if kind != vector.Bool {
				return NoReg, n.errf(e.P, "! requires a boolean operand")
			}
		case dsl.UnSqrt:
			uop = USqrt
			if kind != vector.F64 {
				var err error
				a, err = n.coerceVec(out, e.P, a, vector.F64)
				if err != nil {
					return NoReg, err
				}
				kind = vector.F64
			}
		}
		dst := n.newReg(kind, ai.Scalar, "")
		op := OpMapUn
		if ai.Scalar {
			op = OpUnS
		}
		n.emit(out, &Instr{Op: op, Dst: dst, A: a, B: NoReg, C: NoReg, Unary: uop, Kind: kind})
		return dst, nil

	case *dsl.CallExpr:
		return n.inlineCall(out, e)

	case *dsl.Lambda:
		return NoReg, n.errf(e.P, "lambda outside skeleton position")

	case *dsl.LenExpr:
		a, err := n.expr(out, e.E)
		if err != nil {
			return NoReg, err
		}
		if n.out.Regs[a].Scalar {
			return NoReg, n.errf(e.P, "len of a scalar")
		}
		dst := n.newReg(vector.I64, true, "")
		n.emit(out, &Instr{Op: OpLen, Dst: dst, A: a, B: NoReg, C: NoReg, Kind: vector.I64})
		return dst, nil

	case *dsl.CastExpr:
		a, err := n.expr(out, e.E)
		if err != nil {
			return NoReg, err
		}
		return n.coerceVec(out, e.P, a, e.To)

	case *dsl.ReadExpr:
		kind, ok := n.ext[e.Data]
		if !ok {
			return NoReg, n.errf(e.P, "read from unbound external %q", e.Data)
		}
		pos, err := n.scalarExpr(out, e.At)
		if err != nil {
			return NoReg, err
		}
		count := NoReg
		if e.Count != nil {
			count, err = n.scalarExpr(out, e.Count)
			if err != nil {
				return NoReg, err
			}
		}
		dst := n.newReg(kind, false, "")
		n.emit(out, &Instr{
			Op: OpRead, Dst: dst, A: pos, B: NoReg, C: count,
			Kind: kind, Data: e.Data,
			Imm: vector.I64Value(int64(vector.DefaultChunkLen)),
		})
		return dst, nil

	case *dsl.MapExpr:
		args := make([]Reg, len(e.Args))
		for i, a := range e.Args {
			r, err := n.expr(out, a)
			if err != nil {
				return NoReg, err
			}
			args[i] = r
		}
		return n.applyLambda(out, e.Fn, args)

	case *dsl.FilterExpr:
		return n.filterExpr(out, e)

	case *dsl.FoldExpr:
		return n.foldExpr(out, e)

	case *dsl.GatherExpr:
		kind, ok := n.ext[e.Data]
		if !ok {
			return NoReg, n.errf(e.P, "gather from unbound external %q", e.Data)
		}
		idx, err := n.expr(out, e.Idx)
		if err != nil {
			return NoReg, err
		}
		if n.out.Regs[idx].Scalar || !n.out.Regs[idx].Kind.IsInteger() {
			return NoReg, n.errf(e.P, "gather index must be an integer flow")
		}
		dst := n.newReg(kind, false, "")
		n.emit(out, &Instr{Op: OpGather, Dst: dst, A: idx, B: NoReg, C: NoReg, Kind: kind, Data: e.Data})
		return dst, nil

	case *dsl.GenExpr:
		count, err := n.scalarExpr(out, e.Count)
		if err != nil {
			return NoReg, err
		}
		iota := n.newReg(vector.I64, false, "")
		n.emit(out, &Instr{Op: OpIota, Dst: iota, A: count, B: NoReg, C: NoReg, Kind: vector.I64})
		return n.applyLambda(out, e.Fn, []Reg{iota})

	case *dsl.CondenseExpr:
		a, err := n.expr(out, e.E)
		if err != nil {
			return NoReg, err
		}
		ai := n.out.Regs[a]
		if ai.Scalar {
			return NoReg, n.errf(e.P, "condense of a scalar")
		}
		dst := n.newReg(ai.Kind, false, "")
		n.emit(out, &Instr{Op: OpCondense, Dst: dst, A: a, B: NoReg, C: NoReg, Kind: ai.Kind})
		return dst, nil

	case *dsl.MergeExpr:
		l, err := n.expr(out, e.L)
		if err != nil {
			return NoReg, err
		}
		r, err := n.expr(out, e.R)
		if err != nil {
			return NoReg, err
		}
		li, ri := n.out.Regs[l], n.out.Regs[r]
		if li.Scalar || ri.Scalar {
			return NoReg, n.errf(e.P, "merge requires flow operands")
		}
		if li.Kind != ri.Kind {
			return NoReg, n.errf(e.P, "merge operand kinds differ: %s vs %s", li.Kind, ri.Kind)
		}
		var mf MergeFlavor
		switch e.Kind {
		case dsl.MergeJoin:
			mf = MJoin
		case dsl.MergeUnion:
			mf = MUnion
		case dsl.MergeDiff:
			mf = MDiff
		case dsl.MergeIntersect:
			mf = MIntersect
		}
		dst := n.newReg(li.Kind, false, "")
		n.emit(out, &Instr{Op: OpMerge, Dst: dst, A: l, B: r, C: NoReg, Kind: li.Kind, Merge: mf})
		return dst, nil
	}
	return NoReg, fmt.Errorf("nir: unknown expression %T", e)
}

var arithFromDSL = map[dsl.BinOp]ArithOp{
	dsl.OpAdd: AAdd, dsl.OpSub: ASub, dsl.OpMul: AMul, dsl.OpDiv: ADiv, dsl.OpMod: AMod,
	dsl.OpAnd: AAnd, dsl.OpOr: AOr, dsl.OpXor: AXor, dsl.OpShl: AShl, dsl.OpShr: AShr,
	dsl.OpMin: AMin, dsl.OpMax: AMax,
}

var cmpFromDSL = map[dsl.BinOp]CmpOp{
	dsl.OpEq: CEq, dsl.OpNe: CNe, dsl.OpLt: CLt, dsl.OpLe: CLe, dsl.OpGt: CGt, dsl.OpGe: CGe,
}

func (n *normalizer) binExpr(out *[]Node, e *dsl.Bin) (Reg, error) {
	a, err := n.expr(out, e.L)
	if err != nil {
		return NoReg, err
	}
	b, err := n.expr(out, e.R)
	if err != nil {
		return NoReg, err
	}
	return n.emitBin(out, e.P, e.Op, a, b)
}

func (n *normalizer) emitBin(out *[]Node, pos dsl.Position, op dsl.BinOp, a, b Reg) (Reg, error) {
	ai, bi := n.out.Regs[a], n.out.Regs[b]

	// Boolean connectives.
	if ai.Kind == vector.Bool || bi.Kind == vector.Bool {
		if ai.Kind != vector.Bool || bi.Kind != vector.Bool {
			return NoReg, n.errf(pos, "boolean operator on mixed operands")
		}
		aop, ok := arithFromDSL[op]
		if !ok || (aop != AAnd && aop != AOr && aop != AXor) {
			if cop, ok := cmpFromDSL[op]; ok && (cop == CEq || cop == CNe) {
				return n.emitCmp(out, cop, a, b, vector.Bool)
			}
			return NoReg, n.errf(pos, "operator %s not defined on booleans", op)
		}
		return n.emitArith(out, aop, a, b, vector.Bool)
	}

	if !ai.Kind.IsNumeric() || !bi.Kind.IsNumeric() {
		return NoReg, n.errf(pos, "operator %s requires numeric operands, got %s and %s", op, ai.Kind, bi.Kind)
	}

	// Kind unification with constant narrowing.
	kind := unifyNumeric(ai.Kind, bi.Kind)
	if kind != ai.Kind && n.narrowConst(b, ai.Kind) {
		kind = ai.Kind
		n.retypeConstInstr(*out, b, kind)
		bi = n.out.Regs[b]
	} else if kind != bi.Kind && n.narrowConst(a, bi.Kind) {
		kind = bi.Kind
		n.retypeConstInstr(*out, a, kind)
		ai = n.out.Regs[a]
	}
	if ai.Kind != kind {
		a, err := n.coerceVec(out, pos, a, kind)
		if err != nil {
			return NoReg, err
		}
		return n.emitBinUnified(out, pos, op, a, b, kind)
	}
	if bi.Kind != kind {
		b, err := n.coerceVec(out, pos, b, kind)
		if err != nil {
			return NoReg, err
		}
		return n.emitBinUnified(out, pos, op, a, b, kind)
	}
	return n.emitBinUnified(out, pos, op, a, b, kind)
}

func (n *normalizer) emitBinUnified(out *[]Node, pos dsl.Position, op dsl.BinOp, a, b Reg, kind vector.Kind) (Reg, error) {
	if cop, ok := cmpFromDSL[op]; ok {
		return n.emitCmp(out, cop, a, b, kind)
	}
	aop, ok := arithFromDSL[op]
	if !ok {
		return NoReg, n.errf(pos, "unsupported operator %s", op)
	}
	if kind == vector.F64 {
		switch aop {
		case AAnd, AOr, AXor, AShl, AShr, AMod:
			return NoReg, n.errf(pos, "operator %s not defined on f64", op)
		}
	}
	return n.emitArith(out, aop, a, b, kind)
}

func (n *normalizer) emitArith(out *[]Node, op ArithOp, a, b Reg, kind vector.Kind) (Reg, error) {
	ai, bi := n.out.Regs[a], n.out.Regs[b]
	scalar := ai.Scalar && bi.Scalar
	dst := n.newReg(kind, scalar, "")
	code := OpMapBin
	if scalar {
		code = OpBinS
	}
	n.emit(out, &Instr{Op: code, Dst: dst, A: a, B: b, C: NoReg, Arith: op, Kind: kind})
	return dst, nil
}

func (n *normalizer) emitCmp(out *[]Node, op CmpOp, a, b Reg, operandKind vector.Kind) (Reg, error) {
	ai, bi := n.out.Regs[a], n.out.Regs[b]
	scalar := ai.Scalar && bi.Scalar
	dst := n.newReg(vector.Bool, scalar, "")
	if scalar {
		n.emit(out, &Instr{Op: OpBinS, Dst: dst, A: a, B: b, C: NoReg, Cmp: op, Kind: operandKind})
	} else {
		n.emit(out, &Instr{Op: OpMapCmp, Dst: dst, A: a, B: b, C: NoReg, Cmp: op, Kind: operandKind})
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Lambdas, calls, filter, fold

// resolveLambda turns a named-function reference into its definition.
func (n *normalizer) resolveLambda(l *dsl.Lambda) (*dsl.Lambda, error) {
	call, ok := l.Body.(*dsl.CallExpr)
	if !ok || l.Params != nil || len(call.Args) != 0 {
		return l, nil
	}
	f, ok := n.prog.Funcs[call.Name]
	if !ok {
		return nil, n.errf(l.Pos(), "undefined function %q", call.Name)
	}
	return &dsl.Lambda{Params: f.Params, Body: f.Body}, nil
}

// applyLambda normalizes a lambda body with parameters bound to arg regs.
// This is where deforestation happens structurally: the body becomes a chain
// of single-op instructions over the argument flows, with no intermediate
// trees.
func (n *normalizer) applyLambda(out *[]Node, l *dsl.Lambda, args []Reg) (Reg, error) {
	l, err := n.resolveLambda(l)
	if err != nil {
		return NoReg, err
	}
	if len(l.Params) != len(args) {
		return NoReg, n.errf(l.Pos(), "lambda arity %d does not match %d arguments", len(l.Params), len(args))
	}
	if n.depth >= maxInlineDepth {
		return NoReg, n.errf(l.Pos(), "function inlining too deep (recursion?)")
	}
	saved := n.snapshotScope()
	defer n.restoreScope(saved)
	n.depth++
	defer func() { n.depth-- }()
	for i, p := range l.Params {
		n.vars[p] = args[i]
		n.mut[p] = false
	}
	return n.expr(out, l.Body)
}

func (n *normalizer) inlineCall(out *[]Node, e *dsl.CallExpr) (Reg, error) {
	f, ok := n.prog.Funcs[e.Name]
	if !ok {
		return NoReg, n.errf(e.P, "call to undefined function %q", e.Name)
	}
	args := make([]Reg, len(e.Args))
	for i, a := range e.Args {
		r, err := n.expr(out, a)
		if err != nil {
			return NoReg, err
		}
		args[i] = r
	}
	return n.applyLambda(out, &dsl.Lambda{Params: f.Params, Body: f.Body}, args)
}

// filterExpr normalizes filter p a; see filterPred.
func (n *normalizer) filterExpr(out *[]Node, e *dsl.FilterExpr) (Reg, error) {
	arg, err := n.expr(out, e.Arg)
	if err != nil {
		return NoReg, err
	}
	if n.out.Regs[arg].Scalar {
		return NoReg, n.errf(e.P, "filter requires a flow argument")
	}
	pred, err := n.resolveLambda(e.Pred)
	if err != nil {
		return NoReg, err
	}
	if len(pred.Params) != 1 {
		return NoReg, n.errf(e.P, "filter predicate must be unary")
	}
	return n.filterPred(out, e.P, arg, pred)
}

// filterPred narrows flow arg to the rows satisfying the unary predicate p.
// A top-level conjunction of two conditions on the parameter narrows by each
// conjunct in turn: the same rows as the conjunction's mask, with the later
// conjunct evaluated only over the survivors of the earlier one. A
// comparison of the parameter with a constant (either side) becomes the
// fused OpSelectCmp when the constant is exact in the flow's kind;
// everything else goes through a bool map plus OpSelect.
func (n *normalizer) filterPred(out *[]Node, pos dsl.Position, arg Reg, p *dsl.Lambda) (Reg, error) {
	if bin, ok := p.Body.(*dsl.Bin); ok {
		if bin.Op == dsl.OpAnd && mentions(bin.L, p.Params[0]) && mentions(bin.R, p.Params[0]) {
			l, r := *p, *p
			l.Body, r.Body = bin.L, bin.R
			sel, err := n.filterPred(out, pos, arg, &l)
			if err != nil {
				return NoReg, err
			}
			return n.filterPred(out, pos, sel, &r)
		}
		if cop, isCmp := cmpFromDSL[bin.Op]; isCmp {
			isParam := func(e dsl.Expr) bool {
				vr, ok := e.(*dsl.VarRef)
				return ok && vr.Name == p.Params[0]
			}
			if c, ok := bin.R.(*dsl.Const); ok && isParam(bin.L) {
				if dst, ok := n.emitSelectCmp(out, arg, cop, c.Val); ok {
					return dst, nil
				}
			}
			if c, ok := bin.L.(*dsl.Const); ok && isParam(bin.R) {
				// const <cmp> x  ≡  x <swapped-cmp> const
				if dst, ok := n.emitSelectCmp(out, arg, swapCmp(cop), c.Val); ok {
					return dst, nil
				}
			}
		}
	}

	// General path: evaluate predicate into a bool vector, then select.
	boolReg, err := n.applyLambda(out, p, []Reg{arg})
	if err != nil {
		return NoReg, err
	}
	bi := n.out.Regs[boolReg]
	if bi.Scalar || bi.Kind != vector.Bool {
		return NoReg, n.errf(pos, "filter predicate must produce a boolean flow, got %s", bi)
	}
	ai := n.out.Regs[arg]
	dst := n.newReg(ai.Kind, false, "")
	n.emit(out, &Instr{Op: OpSelect, Dst: dst, A: arg, B: boolReg, C: NoReg, Kind: ai.Kind})
	return dst, nil
}

// swapCmp mirrors a comparison when its operands are exchanged.
func swapCmp(op CmpOp) CmpOp {
	switch op {
	case CLt:
		return CGt
	case CLe:
		return CGe
	case CGt:
		return CLt
	case CGe:
		return CLe
	}
	return op // eq, ne symmetric
}

// emitSelectCmp emits the fused selection arg <op> c when c is exact in the
// flow's kind, so the comparison is the one the general path makes: an
// integer constant within an integer flow's range (the general path narrows
// it), or any numeric constant against an f64 flow (the general path widens
// it). Otherwise ok is false and the caller takes the general path, which
// compares in the wider kind — an i64 flow against 10.5 compares in f64, and
// an i32 flow against 1<<32 in i64.
func (n *normalizer) emitSelectCmp(out *[]Node, arg Reg, op CmpOp, c vector.Value) (Reg, bool) {
	kind := n.out.Regs[arg].Kind
	switch {
	case !kind.IsNumeric() || !c.Kind.IsNumeric():
		return NoReg, false
	case kind == vector.F64:
		if c.Kind != vector.F64 {
			c = vector.F64Value(float64(c.I))
		}
	case c.Kind == vector.F64:
		return NoReg, false
	default:
		if lo, hi := vector.IntRange(kind); c.I < lo || c.I > hi {
			return NoReg, false
		}
		c.Kind = kind
	}
	cr := n.constReg(out, c)
	dst := n.newReg(kind, false, "")
	n.emit(out, &Instr{Op: OpSelectCmp, Dst: dst, A: arg, B: cr, C: NoReg, Cmp: op, Kind: kind})
	return dst, true
}

// foldExpr normalizes fold f init a. The reduction function must decompose
// as (\acc x -> acc ⊕ g(x)) — acc occurring exactly once as an operand of the
// top-level operator — matching the paper's normalization example: g(x) maps
// first, then a single-operator fold reduces.
func (n *normalizer) foldExpr(out *[]Node, e *dsl.FoldExpr) (Reg, error) {
	fn, err := n.resolveLambda(e.Fn)
	if err != nil {
		return NoReg, err
	}
	if len(fn.Params) != 2 {
		return NoReg, n.errf(e.P, "fold function must be binary (\\acc x -> ...)")
	}
	accName, xName := fn.Params[0], fn.Params[1]

	bin, ok := fn.Body.(*dsl.Bin)
	if !ok {
		return NoReg, n.errf(e.P, "fold function must be (\\acc x -> acc <op> g(x))")
	}
	aop, ok := arithFromDSL[bin.Op]
	if !ok {
		return NoReg, n.errf(e.P, "fold operator %s is not a reduction operator", bin.Op)
	}
	var gExpr dsl.Expr
	if vr, ok := bin.L.(*dsl.VarRef); ok && vr.Name == accName && !mentions(bin.R, accName) {
		gExpr = bin.R
	} else if vr, ok := bin.R.(*dsl.VarRef); ok && vr.Name == accName && !mentions(bin.L, accName) {
		if !isCommutative(aop) {
			return NoReg, n.errf(e.P, "accumulator must be the left operand of non-commutative %s", bin.Op)
		}
		gExpr = bin.L
	} else {
		return NoReg, n.errf(e.P, "fold function must use the accumulator exactly once at the top level")
	}

	arg, err := n.expr(out, e.Arg)
	if err != nil {
		return NoReg, err
	}
	if n.out.Regs[arg].Scalar {
		return NoReg, n.errf(e.P, "fold requires a flow argument")
	}
	mapped, err := n.applyLambda(out, &dsl.Lambda{Params: []string{xName}, Body: gExpr}, []Reg{arg})
	if err != nil {
		return NoReg, err
	}
	mi := n.out.Regs[mapped]
	if mi.Scalar {
		return NoReg, n.errf(e.P, "fold body must depend on the element parameter")
	}

	init, err := n.scalarExpr(out, e.Init)
	if err != nil {
		return NoReg, err
	}
	init, err = n.coerceVec(out, e.P, init, mi.Kind)
	if err != nil {
		return NoReg, err
	}
	dst := n.newReg(mi.Kind, true, "")
	n.emit(out, &Instr{Op: OpFold, Dst: dst, A: init, B: mapped, C: NoReg, Arith: aop, Kind: mi.Kind})
	return dst, nil
}

func isCommutative(op ArithOp) bool {
	switch op {
	case AAdd, AMul, AAnd, AOr, AXor, AMin, AMax:
		return true
	}
	return false
}

// mentions reports whether expression e references name.
func mentions(e dsl.Expr, name string) bool {
	found := false
	var walk func(dsl.Expr)
	walk = func(e dsl.Expr) {
		if found || e == nil {
			return
		}
		switch e := e.(type) {
		case *dsl.VarRef:
			if e.Name == name {
				found = true
			}
		case *dsl.Bin:
			walk(e.L)
			walk(e.R)
		case *dsl.Un:
			walk(e.E)
		case *dsl.CallExpr:
			for _, a := range e.Args {
				walk(a)
			}
		case *dsl.LenExpr:
			walk(e.E)
		case *dsl.CastExpr:
			walk(e.E)
		case *dsl.MapExpr:
			for _, a := range e.Args {
				walk(a)
			}
		case *dsl.FilterExpr:
			walk(e.Arg)
		case *dsl.FoldExpr:
			walk(e.Init)
			walk(e.Arg)
		case *dsl.GenExpr:
			walk(e.Count)
		case *dsl.CondenseExpr:
			walk(e.E)
		case *dsl.MergeExpr:
			walk(e.L)
			walk(e.R)
		case *dsl.GatherExpr:
			walk(e.Idx)
		case *dsl.ReadExpr:
			walk(e.At)
			if e.Count != nil {
				walk(e.Count)
			}
		}
	}
	walk(e)
	return found
}
