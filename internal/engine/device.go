// Heterogeneous morsel dispatch: the relational half of the paper's third
// research target (§IV, adaptive decisions about *which hardware* runs each
// part of a query). Eligible streaming segments — scan→filter/compute
// pipelines and join probes — are costed per morsel as device kernels and
// dispatched to the CPU workers or the simulated GPU by the device.Placer's
// model + EWMA feedback. Every device executes on the host (the GPU is
// modeled), so placement is purely a cost/scheduling concern: the chunk
// stream, and therefore the query result, is byte-identical under any
// policy.

package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/vector"
)

// KernelSpec is the per-query cost template of one streaming segment,
// derived from the plan: instantiated per morsel into a device.Kernel by
// scaling the per-row volumes to the morsel's row count. Inputs name the
// scanned columns with stable residency keys, so the simulated GPU's
// residency cache makes repeated queries over the same table progressively
// cheaper to offload.
type KernelSpec struct {
	// Name identifies the segment for placement feedback.
	Name string
	// Inputs are residency keys, one per scanned column.
	Inputs []string
	// RowBytes is the summed per-row width of the scanned columns.
	RowBytes int
	// OutRowBytes estimates the per-row output volume.
	OutRowBytes int
	// OpsPerElem approximates the segment's arithmetic intensity per row
	// (filters, computes and probes stacked on the scan).
	OpsPerElem float64
}

// Kernel instantiates the spec for the morsel [lo, hi).
func (s KernelSpec) Kernel(lo, hi int) device.Kernel {
	n := hi - lo
	return device.Kernel{
		Name:       s.Name,
		Elems:      n,
		BytesIn:    n * s.RowBytes,
		BytesOut:   n * s.OutRowBytes,
		OpsPerElem: s.OpsPerElem,
		Inputs:     s.Inputs,
	}
}

// PlacementRecorder accumulates one query's morsel placement decisions.
// It is shared by every worker's DeviceExec, so it synchronizes internally;
// contention is negligible (one update per morsel, not per chunk).
type PlacementRecorder struct {
	mu       sync.Mutex
	counts   map[string]int64
	transfer time.Duration
}

// NewPlacementRecorder creates an empty recorder.
func NewPlacementRecorder() *PlacementRecorder {
	return &PlacementRecorder{counts: map[string]int64{}}
}

// record counts one morsel placed on the named device.
func (r *PlacementRecorder) record(deviceName string, cost device.Cost) {
	r.mu.Lock()
	r.counts[deviceName]++
	r.transfer += cost.Transfer
	r.mu.Unlock()
}

// Counts returns a snapshot of morsels dispatched per device.
func (r *PlacementRecorder) Counts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for name, n := range r.counts {
		out[name] = n
	}
	return out
}

// Transfer returns the accumulated modeled transfer time of placed morsels
// (zero unless some ran on the simulated GPU).
func (r *PlacementRecorder) Transfer() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.transfer
}

// MorselRunner is implemented by pipeline tops that execute one dispatched
// morsel as a unit. The dispatching operators' shared drain detects it and
// hands over the whole morsel drain — the hook through which DeviceExec
// interposes device placement without the dispatchers knowing about
// devices.
type MorselRunner interface {
	Operator
	// RunMorsel drains the pipeline for the armed morsel [lo, hi), passing
	// each chunk to sink in stream order. A chunk is valid only until sink
	// returns: the pipeline's next Next may overwrite it (see Operator).
	RunMorsel(ctx context.Context, lo, hi int, sink func(*vector.Chunk)) error
}

// DeviceExec wraps one worker's streaming pipeline with per-morsel device
// placement: each dispatched morsel is costed through the KernelSpec and
// executed under the chosen device — the placer's pick under the adaptive
// policy, or a fixed device when the policy forces one. The CPU device
// reports measured wall time and the GPU modeled time, both feeding the
// placer's EWMA bias, so placement self-corrects with the observed cost of
// real query pipelines.
//
// As a plain Operator it is transparent (Next delegates to the child); the
// placement path is RunMorsel, reached through the MorselRunner detection
// in the exchange dispatch loops.
type DeviceExec struct {
	child  Operator
	placer *device.Placer
	forced device.Device // non-nil pins every morsel (DeviceCPU/DeviceGPU policies)
	spec   KernelSpec
	rec    *PlacementRecorder

	// lastDev names the device that ran the most recent morsel. It is
	// written and read only on the worker goroutine that owns this
	// pipeline (the dispatch closure reads it right after RunMorsel
	// returns), so it needs no synchronization.
	lastDev string
}

// LastDevice returns the device that executed the most recent morsel
// ("" before the first one).
func (d *DeviceExec) LastDevice() string { return d.lastDev }

// NewDeviceExec wraps child. Exactly one of placer (adaptive) or forced
// (pinned) should be set; rec may be nil when no one observes placements.
func NewDeviceExec(child Operator, placer *device.Placer, forced device.Device,
	spec KernelSpec, rec *PlacementRecorder) *DeviceExec {
	return &DeviceExec{child: child, placer: placer, forced: forced, spec: spec, rec: rec}
}

// Schema implements Operator.
func (d *DeviceExec) Schema() []ColInfo { return d.child.Schema() }

// Open implements Operator.
func (d *DeviceExec) Open(ctx context.Context) error { return d.child.Open(ctx) }

// Next implements Operator (pass-through for serial use).
func (d *DeviceExec) Next(ctx context.Context) (*vector.Chunk, error) { return d.child.Next(ctx) }

// Close implements Operator.
func (d *DeviceExec) Close() error { return d.child.Close() }

// RunMorsel implements MorselRunner: it drains the child for the morsel the
// caller armed (its dispatcher set the scan leaf's range to [lo, hi)) through
// sink under one placed device, and records the decision. The sink runs
// inside the placed work, so it folds or copies each chunk while the device
// holds it and nothing is buffered past the pipeline's next Next.
func (d *DeviceExec) RunMorsel(ctx context.Context, lo, hi int, sink func(*vector.Chunk)) error {
	var runErr error
	work := func() { runErr = drainInto(ctx, d.child, sink) }
	k := d.spec.Kernel(lo, hi)
	var dev device.Device
	var cost device.Cost
	if d.forced != nil {
		dev, cost = d.forced, d.forced.Run(k, work)
	} else {
		dev, cost = d.placer.Execute(k, work)
	}
	if runErr != nil {
		return runErr
	}
	d.lastDev = dev.Name()
	if d.rec != nil {
		d.rec.record(dev.Name(), cost)
	}
	return nil
}
