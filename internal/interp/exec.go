package interp

import (
	"fmt"

	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// ExecInstr executes one normalized instruction against env, returning the
// number of tuples processed (for profiling). Element-wise instructions bind
// their kernel through primitive.Bind, as compiled traces and the fused tier
// do; the interpreter and trace guard-failure fallbacks go through here.
func ExecInstr(env *Env, in *nir.Instr) (int, error) {
	switch in.Op {
	case nir.OpConst:
		env.SetScalar(in.Dst, in.Imm)
		return 1, nil

	case nir.OpMove:
		if env.Prog.Reg(in.A).Scalar {
			env.SetScalar(in.Dst, env.ScalarOf(in.A))
			return 1, nil
		}
		// Deep-copy flows on move: the destination register must not alias
		// the source's buffer, which later instructions may overwrite.
		src := env.FlowOf(in.A)
		n := 0
		if src.Vec != nil {
			n = src.Vec.Len()
		}
		dst := env.OutBuf(in.Dst, in.Kind, n)
		if src.Vec != nil {
			dst.CopyFrom(0, src.Vec, 0, n)
		}
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: src.Sel})
		return n, nil

	case nir.OpBinS:
		a, b := env.ScalarOf(in.A), env.ScalarOf(in.B)
		if in.Cmp != nir.CInvalid {
			r, ok := primitive.ScalarCmp(in.Kind, in.Cmp, a, b)
			if !ok {
				return 0, fmt.Errorf("interp: scalar comparison %v not defined on %v", in.Cmp, in.Kind)
			}
			env.SetScalar(in.Dst, vector.BoolValue(r))
			return 1, nil
		}
		v, ok := primitive.ScalarArith(in.Kind, in.Arith, a, b)
		if !ok {
			return 0, fmt.Errorf("interp: scalar op %v not defined on %v", in.Arith, in.Kind)
		}
		env.SetScalar(in.Dst, v)
		return 1, nil

	case nir.OpUnS:
		v, ok := primitive.ScalarUnary(in.Kind, in.Unary, env.ScalarOf(in.A))
		if !ok {
			return 0, fmt.Errorf("interp: scalar unary %v not defined on %v", in.Unary, in.Kind)
		}
		env.SetScalar(in.Dst, v)
		return 1, nil

	case nir.OpLen:
		f := env.FlowOf(in.A)
		env.SetScalar(in.Dst, vector.I64Value(int64(f.Len())))
		return 1, nil

	case nir.OpMapBin, nir.OpMapCmp, nir.OpMapUn:
		return execMap(env, in)

	case nir.OpCast:
		if env.Prog.Reg(in.A).Scalar {
			v := env.ScalarOf(in.A)
			out, ok := primitive.ScalarCast(v, in.Kind)
			if !ok {
				return 0, fmt.Errorf("interp: no cast %v→%v", v.Kind, in.Kind)
			}
			env.SetScalar(in.Dst, out)
			return 1, nil
		}
		if f := env.FlowOf(in.A); f.Vec.Kind() == in.Kind {
			env.SetFlow(in.Dst, f)
			return f.Len(), nil
		}
		return execMap(env, in)

	case nir.OpSelect:
		f := env.FlowOf(in.A)
		mask := env.FlowOf(in.B)
		sel := primitive.SelectFromBool(mask.Vec, f.Sel)
		env.SetFlow(in.Dst, Flow{Vec: f.Vec, Sel: sel})
		return f.Len(), nil

	case nir.OpSelectCmp:
		// Selections are freshly allocated, not recycled per register like
		// OutBuf: maps pass their input's selection on by reference, so a
		// loop-carried flow can still hold this register's last selection
		// when the filter runs again.
		f := env.FlowOf(in.A)
		k, ok := primitive.SelectCmpInto(in.Kind, in.Cmp)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel select.%v<%v>", in.Cmp, in.Kind)
		}
		sel := k(nil, f.Vec, env.ScalarOf(in.B), f.Sel, 0, primitive.Span(f.Vec, f.Sel))
		env.SetFlow(in.Dst, Flow{Vec: f.Vec, Sel: sel})
		return f.Len(), nil

	case nir.OpRead:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		pos := env.ScalarInt(in.A)
		count := in.Imm.I
		if in.C != nir.NoReg {
			count = env.ScalarInt(in.C)
		}
		n := int64(data.Len()) - pos
		if n < 0 {
			n = 0
		}
		if n > count {
			n = count
		}
		if pos < 0 {
			return 0, fmt.Errorf("interp: read at negative position %d of %q", pos, in.Data)
		}
		view := data.Slice(int(pos), int(pos+n))
		env.SetFlow(in.Dst, Flow{Vec: view, Sel: nil})
		return int(n), nil

	case nir.OpWrite:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		pos := env.ScalarInt(in.A)
		if pos < 0 {
			return 0, fmt.Errorf("interp: write at negative position %d of %q", pos, in.Data)
		}
		if env.Prog.Reg(in.B).Scalar {
			// Scalars are arrays of length 1 (§II of the paper).
			if need := int(pos) + 1; need > data.Len() {
				data.SetLen(need)
			}
			data.Set(int(pos), env.ScalarOf(in.B))
			return 1, nil
		}
		f := env.FlowOf(in.B)
		n := f.Len()
		if need := int(pos) + n; need > data.Len() {
			data.SetLen(need)
		}
		if f.Sel == nil {
			data.CopyFrom(int(pos), f.Vec, 0, n)
		} else {
			for k, i := range f.Sel {
				data.Set(int(pos)+k, f.Vec.Get(int(i)))
			}
		}
		return n, nil

	case nir.OpGather:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		idx := env.FlowOf(in.A)
		dst := env.OutBuf(in.Dst, in.Kind, idx.Vec.Len())
		primitive.Gather(dst, data, idx.Vec, idx.Sel)
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: idx.Sel})
		return idx.Len(), nil

	case nir.OpScatter:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		idx := env.FlowOf(in.A)
		val := env.FlowOf(in.B)
		primitive.Scatter(data, idx.Vec, val.Vec, val.Sel, in.Conf)
		return val.Len(), nil

	case nir.OpIota:
		n := env.ScalarInt(in.A)
		if n < 0 {
			n = 0
		}
		dst := env.OutBuf(in.Dst, vector.I64, int(n))
		primitive.Iota(dst, 0)
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: nil})
		return int(n), nil

	case nir.OpCondense:
		f := env.FlowOf(in.A)
		out := f.Condensed()
		env.SetFlow(in.Dst, Flow{Vec: out, Sel: nil})
		return out.Len(), nil

	case nir.OpFold:
		f := env.FlowOf(in.B)
		k, ok := primitive.Fold(in.Kind, in.Arith)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel fold.%v<%v>", in.Arith, in.Kind)
		}
		env.SetScalar(in.Dst, k(env.ScalarOf(in.A), f.Vec, f.Sel, 0, primitive.Span(f.Vec, f.Sel)))
		return f.Len(), nil

	case nir.OpMerge:
		a := env.FlowOf(in.A).Condensed()
		b := env.FlowOf(in.B).Condensed()
		out := primitive.MergeValues(in.Merge, a, b)
		env.SetFlow(in.Dst, Flow{Vec: out, Sel: nil})
		return a.Len() + b.Len(), nil
	}
	return 0, fmt.Errorf("interp: unknown opcode %v", in.Op)
}

// execMap runs an element-wise instruction through its bound kernel over
// the selection of its flow operand (the first one, if both are flows).
func execMap(env *Env, in *nir.Instr) (int, error) {
	k, err := primitive.Bind(env.Prog, in)
	if err != nil {
		return 0, fmt.Errorf("interp: %w", err)
	}
	a, fa := env.arg(in.A)
	b, fb := env.arg(in.B)
	f := fa
	if f.Vec == nil {
		f = fb
	}
	dst := env.OutBuf(in.Dst, k.Out(), f.Vec.Len())
	k.Run(dst, a, b, f.Sel, 0, primitive.Span(f.Vec, f.Sel))
	env.SetFlow(in.Dst, Flow{Vec: dst, Sel: f.Sel})
	return f.Len(), nil
}
