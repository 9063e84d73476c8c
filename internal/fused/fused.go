// Package fused is the relational JIT tier of the adaptive VM: it compiles a
// hot streaming plan segment — scan→filter→compute→probe — into one loop
// over bound kernels, replacing the chain of vectorized operators (and their
// per-chunk expression-VM dispatch). Every filter and compute lambda is
// lowered by engine.LowerExpr, the normalizer the interpreted operators use,
// and each normalized instruction binds to the kernel the interpreter would
// run (primitive.Bind); scalar instructions fold at compile time. A fused
// program is therefore a list of kernel, in-place selection and probe
// instructions over the chunk's values, and computes what the interpreted
// chain computes by construction: the same instructions through the same
// kernels.
//
// The tier boundary mirrors the paper's micro-adaptive machinery on the
// query side: cold plans run the existing vectorized interpreter; once a
// plan fingerprint crosses the warm threshold its segment is compiled and
// cached (keyed by fingerprint + specialization signature, see Signature);
// at the hot threshold queries execute the cached fused loop. Fused
// execution carries guards — a selectivity upper bound learned over the
// first chunks, and a probe fan-out capacity bound — and deoptimizes back
// to the interpreted operator chain at a chunk boundary when a guard trips,
// so results are byte-identical to interpreted execution in every case.
//
// Every lambda the interpreted operators accept compiles. A segment
// declines fusion, and keeps running interpreted, only when a lambda does
// not lower at all or for a structural reason: an unknown or duplicate
// column, an output that shadows a column, a non-i64 probe key or a missing
// payload column.
//
// Concurrency contract: a compiled Program is immutable and safe to share —
// the engine-wide code cache hands one instance to every query and every
// worker. All mutable execution state lives in the per-worker Exec wrapper
// (one is mounted per worker pipeline, so fused loops run morsel-parallel
// without coordination); the only cross-worker state is the Counters
// telemetry, which is atomic. Guards and deopts are local to one Exec:
// a worker reverting to the interpreter never affects its siblings.
package fused

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/vector"
)

// StageKind tags one stage of a streaming segment.
type StageKind int

// Segment stage kinds, in stream order on top of the scan.
const (
	// StageFilter keeps rows satisfying a one-parameter predicate lambda.
	StageFilter StageKind = iota
	// StageCompute appends a column derived by a lambda over input columns.
	StageCompute
	// StageProbe probes a shared hash-join build side and appends payload
	// columns, multiplying rows by their match counts.
	StageProbe
)

// Stage describes one stage of a streaming segment in a compiler- and
// signature-friendly form, bottom-up (scan first). The advm builder
// translates its plan nodes into this; the fused package never sees plans.
type Stage struct {
	Kind   StageKind
	Lambda string // DSL lambda source (filter predicate / compute expression)

	Col string // filter input column

	Out     string      // compute output column
	OutKind vector.Kind // compute output kind
	Cols    []string    // compute input columns, in parameter order

	ProbeKey   string        // probe key column (i64)
	Payload    []string      // build-side payload columns to append
	BuildNames []string      // build-side schema column names
	BuildKinds []vector.Kind // build-side schema column kinds
	Table      int           // index into the per-query shared-table list
}

// Signature is the specialization key of a segment: an injective encoding of
// the scanned columns (names and kinds) and every stage's full shape. Two
// segments share a signature exactly when the compiler would emit the same
// program for them, so the code cache — keyed by plan fingerprint plus this
// signature — can never serve a loop specialized for different types,
// predicates or join shapes.
func Signature(scan []engine.ColInfo, stages []Stage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan/%d:", len(scan))
	for _, c := range scan {
		fmt.Fprintf(&b, "%q=%d,", c.Name, c.Kind)
	}
	for _, st := range stages {
		switch st.Kind {
		case StageFilter:
			fmt.Fprintf(&b, ";F%q@%q", st.Lambda, st.Col)
		case StageCompute:
			fmt.Fprintf(&b, ";C%q->%q=%d/%d:", st.Lambda, st.Out, st.OutKind, len(st.Cols))
			for _, c := range st.Cols {
				fmt.Fprintf(&b, "%q,", c)
			}
		case StageProbe:
			fmt.Fprintf(&b, ";J%q#%d/%d:", st.ProbeKey, st.Table, len(st.Payload))
			for _, p := range st.Payload {
				fmt.Fprintf(&b, "%q,", p)
			}
			fmt.Fprintf(&b, "|%d:", len(st.BuildNames))
			for i, n := range st.BuildNames {
				k := vector.Invalid
				if i < len(st.BuildKinds) {
					k = st.BuildKinds[i]
				}
				fmt.Fprintf(&b, "%q=%d,", n, k)
			}
		default:
			fmt.Fprintf(&b, ";?%d", st.Kind)
		}
	}
	return b.String()
}
