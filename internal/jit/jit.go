// Package jit turns dependency-graph fragments into compiled traces
// (§III-B "(Partial) Compilation"). A trace is the Go analogue of the
// paper's generated-and-JIT-compiled function:
//
//   - operand access and kernel dispatch are resolved at compile time into
//     direct function pointers (no per-operation lookup at run time);
//   - maximal runs of element-wise operations are fused into a single
//     register-blocked sweep: the run processes the chunk in tile-sized
//     windows, so each window of every intermediate stays L1-resident while
//     all member operations consume it (one pass over the data instead of
//     one pass per operation);
//   - per-operation profiling disappears; the trace is measured as a whole,
//     which is what the VM's micro-adaptive choice needs;
//   - an optional guard captures the "situation" the trace is specialized
//     for; guard failure falls back to interpretation of the member
//     instructions (deoptimization), matching §III-C's fallback story.
//
// Real machine-code generation is unavailable in Go (no JIT ecosystem); the
// compile-effort side of the paper's trade-off is therefore modeled by a
// configurable latency charged before a trace becomes available. The default
// grows linearly with fragment size, mirroring "optimizer passes tend to
// take longer with an increasing amount of code".
package jit

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/profile"
	"repro/internal/vector"
)

// Options configure trace compilation.
type Options struct {
	// TileSize is the register-block window for fused element-wise runs.
	TileSize int
	// CompileLatency models the cost of code generation + optimization for
	// a fragment of n nodes. Compile sleeps for this long before returning,
	// so asynchronous compilation pipelines behave like the real thing.
	// Nil means DefaultCompileLatency; use NoCompileLatency to disable.
	CompileLatency func(n int) time.Duration
	// Guard, when non-nil, is checked before every trace execution; a false
	// result triggers deoptimization (interpret the member instructions).
	Guard func(*interp.Env) bool
}

// DefaultTileSize keeps the per-window working set of a fused run well
// within L1 (256 × 8 B = 2 KiB per live buffer).
const DefaultTileSize = 256

// DefaultCompileLatency is the simulated cost of generating and optimizing
// machine code for a fragment of n nodes.
func DefaultCompileLatency(n int) time.Duration {
	return 500*time.Microsecond + time.Duration(n)*200*time.Microsecond
}

// NoCompileLatency disables the compile-cost model (for tests).
func NoCompileLatency(int) time.Duration { return 0 }

// compiledOp executes one fused unit of the trace over a whole chunk.
type compiledOp func(env *interp.Env) error

// Trace is a compiled fragment, pluggable into the interpreter as a plan
// step.
type Trace struct {
	ids    []int
	instrs []*nir.Instr
	ops    []compiledOp
	prog   *nir.Program
	guard  func(*interp.Env) bool
	label  string

	// Stats for the VM's micro-adaptive comparison (atomics: the VM reads
	// them from the optimizer goroutine).
	calls  atomic.Int64
	nanos  atomic.Int64
	deopts atomic.Int64
}

// Compile builds a trace for a fragment, charging the simulated compile
// latency before returning.
func Compile(prog *nir.Program, g *depgraph.Graph, frag *depgraph.Fragment, opt Options) (*Trace, error) {
	if opt.TileSize <= 0 {
		opt.TileSize = DefaultTileSize
	}
	if opt.CompileLatency == nil {
		opt.CompileLatency = DefaultCompileLatency
	}
	tr := &Trace{prog: prog, guard: opt.Guard}
	for _, n := range frag.Nodes {
		in := g.Nodes[n].Instr
		tr.instrs = append(tr.instrs, in)
		tr.ids = append(tr.ids, in.ID)
	}
	var parts []string
	i := 0
	for i < len(tr.instrs) {
		if run := elementwiseRun(prog, tr.instrs, i); len(run) > 0 {
			op, err := compileRun(prog, run, opt.TileSize)
			if err != nil {
				return nil, err
			}
			tr.ops = append(tr.ops, op)
			if len(run) > 1 {
				parts = append(parts, fmt.Sprintf("fused×%d", len(run)))
			} else {
				parts = append(parts, run[0].Op.String())
			}
			i += len(run)
			continue
		}
		op, err := compileSingle(tr.instrs[i])
		if err != nil {
			return nil, err
		}
		tr.ops = append(tr.ops, op)
		parts = append(parts, tr.instrs[i].Op.String())
		i++
	}
	tr.label = fmt.Sprintf("trace[%s]", strings.Join(parts, "+"))
	if d := opt.CompileLatency(len(frag.Nodes)); d > 0 {
		time.Sleep(d)
	}
	return tr, nil
}

// Covers implements interp.Step.
func (tr *Trace) Covers() []int { return tr.ids }

// Describe implements interp.Step.
func (tr *Trace) Describe() string { return tr.label }

// Calls returns how often the trace executed (guard passes only).
func (tr *Trace) Calls() int64 { return tr.calls.Load() }

// Deopts returns how often the guard failed.
func (tr *Trace) Deopts() int64 { return tr.deopts.Load() }

// NanosPerCall reports the trace's observed mean cost. The first call is
// excluded: it pays one-time buffer allocation and cache warmup that would
// bias the micro-adaptive comparison against fresh traces.
func (tr *Trace) NanosPerCall() float64 {
	c := tr.calls.Load() - 1
	if c <= 0 {
		return 0
	}
	return float64(tr.nanos.Load()) / float64(c)
}

// Run implements interp.Step: execute the compiled ops, or deoptimize to
// the interpreter when the guard fails.
func (tr *Trace) Run(env *interp.Env, prof *profile.Profile) error {
	if tr.guard != nil && !tr.guard(env) {
		tr.deopts.Add(1)
		return tr.deopt(env, prof)
	}
	start := time.Now()
	for _, op := range tr.ops {
		if err := op(env); err != nil {
			return err
		}
	}
	elapsed := time.Since(start).Nanoseconds()
	if tr.calls.Add(1) > 1 {
		tr.nanos.Add(elapsed) // first call is warmup; see NanosPerCall
	}
	if prof != nil {
		first := tr.instrs[0]
		n := 0
		if first.Dst != nir.NoReg && !tr.prog.Reg(first.Dst).Scalar {
			n = env.FlowOf(first.Dst).Len()
		}
		prof.Record(first.ID, n, elapsed)
	}
	return nil
}

// deopt interprets the member instructions (guard failure path).
func (tr *Trace) deopt(env *interp.Env, prof *profile.Profile) error {
	for _, in := range tr.instrs {
		step := interp.InstrStep{In: in}
		if err := step.Run(env, prof); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Run detection and compilation

// elementwiseRun returns the maximal run of element-wise instructions
// starting at index i (possibly length 1), or nil if instrs[i] is not
// element-wise.
func elementwiseRun(prog *nir.Program, instrs []*nir.Instr, i int) []*nir.Instr {
	isEW := func(in *nir.Instr) bool {
		switch in.Op {
		case nir.OpMapBin, nir.OpMapCmp, nir.OpMapUn:
			return true
		case nir.OpCast:
			return !prog.Reg(in.A).Scalar
		}
		return false
	}
	var run []*nir.Instr
	for j := i; j < len(instrs); j++ {
		if !isEW(instrs[j]) {
			break
		}
		run = append(run, instrs[j])
	}
	return run
}

// compileSingle handles the non-element-wise member ops. They execute
// through the shared opcode implementation; the trace still saves their
// per-op profiling and plan-step dispatch overhead.
func compileSingle(in *nir.Instr) (compiledOp, error) {
	switch in.Op {
	case nir.OpRead, nir.OpWrite, nir.OpGather, nir.OpIota, nir.OpCondense, nir.OpFold:
		in := in
		return func(env *interp.Env) error {
			_, err := interp.ExecInstr(env, in)
			return err
		}, nil
	}
	return nil, fmt.Errorf("jit: operation %v is not compilable", in.Op)
}

// pass is one windowed kernel application inside a fused run: a bound
// element-wise kernel over operands a and b.
type pass struct {
	dst  nir.Reg
	kind vector.Kind
	k    primitive.Kernel
	a, b nir.Reg
}

// runCompiled is the compiled form of an element-wise run: a list of passes
// swept window by window over the chunk.
type runCompiled struct {
	prog     *nir.Program
	inputs   []nir.Reg
	passes   []pass
	tileSize int
}

func compileRun(prog *nir.Program, run []*nir.Instr, tileSize int) (compiledOp, error) {
	rc := &runCompiled{prog: prog, tileSize: tileSize}

	defined := map[nir.Reg]bool{}
	for _, in := range run {
		defined[in.Dst] = true
	}
	seen := map[nir.Reg]bool{}
	for _, in := range run {
		for _, u := range in.Uses() {
			if !defined[u] && !prog.Reg(u).Scalar && !seen[u] {
				seen[u] = true
				rc.inputs = append(rc.inputs, u)
			}
		}
	}
	if len(rc.inputs) == 0 {
		return nil, fmt.Errorf("jit: element-wise run has no flow input")
	}
	for _, in := range run {
		k, err := primitive.Bind(prog, in)
		if err != nil {
			return nil, fmt.Errorf("jit: %w", err)
		}
		rc.passes = append(rc.passes, pass{dst: in.Dst, kind: k.Out(), k: k, a: in.A, b: in.B})
	}
	return rc.run, nil
}

// operand resolves a register to a kernel operand: a scalar, an in-run
// output, or an outside flow.
func (rc *runCompiled) operand(env *interp.Env, bufs map[nir.Reg]*vector.Vector, r nir.Reg) primitive.Arg {
	if r == nir.NoReg {
		return primitive.Arg{}
	}
	if rc.prog.Reg(r).Scalar {
		return primitive.Arg{Val: env.ScalarOf(r)}
	}
	if v, ok := bufs[r]; ok {
		return primitive.Arg{Vec: v}
	}
	return primitive.Arg{Vec: env.FlowOf(r).Vec}
}

func (rc *runCompiled) run(env *interp.Env) error {
	base := env.FlowOf(rc.inputs[0])
	if base.Vec == nil {
		return fmt.Errorf("jit: input register r%d is empty", rc.inputs[0])
	}
	n := base.Vec.Len()
	sel := base.Sel
	for _, u := range rc.inputs[1:] {
		f := env.FlowOf(u)
		if f.Vec == nil || f.Vec.Len() != n {
			return fmt.Errorf("jit: misaligned run inputs (r%d)", u)
		}
		if f.Sel != nil {
			sel = f.Sel
		}
	}

	// Allocate every pass output once, full chunk size.
	bufs := make(map[nir.Reg]*vector.Vector, len(rc.passes))
	for _, p := range rc.passes {
		bufs[p.dst] = env.OutBuf(p.dst, p.kind, n)
	}

	span := n
	if sel != nil {
		span = len(sel)
	}
	step := rc.tileSize
	if step <= 0 || len(rc.passes) == 1 {
		step = span
	}
	if step == 0 {
		step = 1 // empty chunk: single no-op window
	}
	for lo := 0; lo < span || (span == 0 && lo == 0); lo += step {
		hi := lo + step
		if hi > span {
			hi = span
		}
		for i := range rc.passes {
			p := &rc.passes[i]
			p.k.Run(bufs[p.dst], rc.operand(env, bufs, p.a), rc.operand(env, bufs, p.b), sel, lo, hi)
		}
		if span == 0 {
			break
		}
	}
	for _, p := range rc.passes {
		env.SetFlow(p.dst, interp.Flow{Vec: bufs[p.dst], Sel: sel})
	}
	return nil
}
