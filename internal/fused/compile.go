package fused

import (
	"repro/internal/engine"
	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// operand is an input of an instruction: value v of the chunk, or the
// constant c when v is negative.
type operand struct {
	v int
	c vector.Value
}

var noOperand = operand{v: -1}

// op is one instruction of a fused program, one of:
//   - a selection (sel set): narrow the selection in place to the rows
//     where value a compares true against the constant b;
//   - a mask selection (mask set): narrow it to the rows where the bool
//     value a is true;
//   - a probe (probe set): match value a against a shared join table;
//   - otherwise a map: value dst = kern(a, b) over the selected rows.
//
// Arithmetic never shows up here: it lives in the bound kernel.
type op struct {
	kern  primitive.Kernel
	sel   primitive.SelCmpIntoFunc
	mask  bool
	probe *probe
	dst   int
	a, b  operand
}

// probe condenses the stream to (probe row, build row) pairs and appends
// payload columns as values dst, dst+1, ….
type probe struct {
	table  int   // index into the per-query shared-table list
	live   []int // values the probe condenses (the slots so far)
	payIdx []int // payload column indexes in the build rows
}

// Program is an immutable compiled segment. It computes a set of values per
// chunk — the scan columns first, then every intermediate and output in
// instruction order — and emits slots, the schema the interpreted operator
// chain would produce, each naming one value. One Program is shared by
// every query and worker that hits its cache entry; all per-query state
// (join-table handles, guards, scratch buffers) lives in Exec.
type Program struct {
	ops     []op
	slots   []engine.ColInfo
	slotVal []int // value emitted in each slot
	nvals   int
	tables  int // shared join tables the program references
}

// Schema returns the fused segment's output schema.
func (p *Program) Schema() []engine.ColInfo {
	return append([]engine.ColInfo(nil), p.slots...)
}

// Ops reports the instruction count: bound kernels, selections and probes
// (observability/tests).
func (p *Program) Ops() int { return len(p.ops) }

// Tables reports how many shared join-table handles an Exec must supply.
func (p *Program) Tables() int { return p.tables }

// Compile lowers a streaming segment into a fused program. Filter and
// compute lambdas go through engine.LowerExpr — the normalizer the
// interpreted operators use — and each resulting instruction binds to the
// kernel the interpreter would run, with scalar instructions folded away.
// ok is false when a lambda does not lower (engine.LowerExpr accepts only
// row-wise lambdas, exactly as the interpreted operators do), or for a
// structural reason: an unknown or duplicate column, an
// output that shadows a column, a non-i64 probe key or a missing payload.
// The segment then stays on the vectorized interpreter.
func Compile(scan []engine.ColInfo, stages []Stage) (*Program, bool) {
	p := &Program{slots: append([]engine.ColInfo(nil), scan...), nvals: len(scan)}
	slot := make(map[string]int, len(scan))
	for i, c := range scan {
		if _, dup := slot[c.Name]; dup {
			return nil, false
		}
		slot[c.Name] = i
		p.slotVal = append(p.slotVal, i)
	}
	for _, st := range stages {
		var ok bool
		switch st.Kind {
		case StageFilter:
			_, ok = p.lower(st.Lambda, true, []string{st.Col}, vector.Invalid, slot)
		case StageCompute:
			ok = p.compileCompute(st, slot)
		case StageProbe:
			ok = p.compileProbe(st, slot)
		}
		if !ok {
			return nil, false
		}
	}
	return p, true
}

func (p *Program) compileCompute(st Stage, slot map[string]int) bool {
	if _, shadow := slot[st.Out]; shadow {
		return false
	}
	v, ok := p.lower(st.Lambda, false, st.Cols, st.OutKind, slot)
	if !ok {
		return false
	}
	slot[st.Out] = len(p.slots)
	p.slots = append(p.slots, engine.ColInfo{Name: st.Out, Kind: st.OutKind})
	p.slotVal = append(p.slotVal, v)
	return true
}

// lower appends the instructions of one filter or compute lambda over the
// named slots and returns the value holding a compute's result.
func (p *Program) lower(lambda string, filter bool, cols []string, outKind vector.Kind, slot map[string]int) (int, bool) {
	kinds := make([]vector.Kind, len(cols))
	colVal := make(map[string]int, len(cols))
	for i, c := range cols {
		s, ok := slot[c]
		if !ok {
			return 0, false
		}
		kinds[i], colVal[c] = p.slots[s].Kind, p.slotVal[s]
	}
	if filter {
		outKind = kinds[0]
	}
	np, err := engine.LowerExpr(lambda, filter, cols, kinds, outKind)
	if err != nil {
		return 0, false
	}
	// LowerExpr guarantees straight-line, row-wise code whose selections
	// narrow one flow in turn, so every selection narrows the chunk's.
	regs := make([]operand, len(np.Regs))
	for _, node := range np.Body {
		in := node.(*nir.InstrNode).Instr
		switch {
		case in.Op == nir.OpRead:
			regs[in.Dst] = operand{v: colVal[in.Data]}
		case in.Op == nir.OpWrite:
			return regs[in.B].v, true
		case in.Op == nir.OpSelectCmp:
			sc, ok := primitive.SelectCmpInto(in.Kind, in.Cmp)
			if !ok {
				return 0, false
			}
			p.ops = append(p.ops, op{sel: sc, a: regs[in.A], b: regs[in.B]})
			regs[in.Dst] = regs[in.A]
		case in.Op == nir.OpSelect:
			p.ops = append(p.ops, op{mask: true, a: regs[in.B], b: noOperand})
			regs[in.Dst] = regs[in.A]
		case np.Reg(in.Dst).Scalar:
			c, ok := foldScalar(in, regs)
			if !ok {
				return 0, false
			}
			regs[in.Dst] = operand{v: -1, c: c}
		default:
			k, err := primitive.Bind(np, in)
			if err != nil {
				return 0, false
			}
			o := op{kern: k, dst: p.nvals, a: regs[in.A], b: noOperand}
			if in.B != nir.NoReg {
				o.b = regs[in.B]
			}
			p.ops = append(p.ops, o)
			regs[in.Dst] = operand{v: p.nvals}
			p.nvals++
		}
	}
	return 0, false
}

// foldScalar evaluates a scalar instruction at compile time, through the
// evaluators the interpreter uses. Its operands are constants: a lowered
// lambda computes scalars only from constants.
func foldScalar(in *nir.Instr, regs []operand) (vector.Value, bool) {
	switch in.Op {
	case nir.OpConst:
		return in.Imm, true
	case nir.OpBinS:
		a, b := regs[in.A].c, regs[in.B].c
		if in.Cmp != nir.CInvalid {
			r, ok := primitive.ScalarCmp(in.Kind, in.Cmp, a, b)
			return vector.BoolValue(r), ok
		}
		return primitive.ScalarArith(in.Kind, in.Arith, a, b)
	case nir.OpUnS:
		return primitive.ScalarUnary(in.Kind, in.Unary, regs[in.A].c)
	case nir.OpCast:
		return primitive.ScalarCast(regs[in.A].c, in.Kind)
	}
	return vector.Value{}, false
}

func (p *Program) compileProbe(st Stage, slot map[string]int) bool {
	a, ok := slot[st.ProbeKey]
	if !ok || p.slots[a].Kind != vector.I64 {
		return false
	}
	if len(st.BuildNames) != len(st.BuildKinds) {
		return false
	}
	pr := &probe{table: st.Table}
	seen := make(map[int]bool, len(p.slotVal))
	for _, v := range p.slotVal {
		if !seen[v] {
			seen[v] = true
			pr.live = append(pr.live, v)
		}
	}
	o := op{probe: pr, a: operand{v: p.slotVal[a]}, b: noOperand, dst: p.nvals}
	for _, pay := range st.Payload {
		if _, shadow := slot[pay]; shadow {
			return false
		}
		idx := -1
		for i, n := range st.BuildNames {
			if n == pay {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false
		}
		pr.payIdx = append(pr.payIdx, idx)
		slot[pay] = len(p.slots)
		p.slots = append(p.slots, engine.ColInfo{Name: pay, Kind: st.BuildKinds[idx]})
		p.slotVal = append(p.slotVal, p.nvals)
		p.nvals++
	}
	p.ops = append(p.ops, o)
	if st.Table+1 > p.tables {
		p.tables = st.Table + 1
	}
	return true
}
