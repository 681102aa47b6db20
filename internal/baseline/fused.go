package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/sim"
	"xkblas/internal/trace"
)

// FusedRunner is implemented by libraries that can execute a batch of
// independent instances of one routine as a single fused job graph. The
// multi-tenant serving front end (internal/serve) uses it for its batching
// path: sub-threshold small requests from many tenants coalesce into one
// DAG, amortizing per-call transfers and filling the pipeline the way
// batched BLAS interfaces (KBLAS-style) do for real small-matrix traffic.
type FusedRunner interface {
	RunFused(req Request, count int) Result
}

// RunFused implements FusedRunner: count independent instances of the
// request's routine — each with its own operands — submitted back to back
// on one handle and drained by a single sync. Instances interleave their
// coherency write-back with the remaining computation (data-on-host
// protocol), so the fused graph overlaps one instance's D2H with the next
// instance's kernels. The measured interval covers every instance.
func (l *StdLib) RunFused(req Request, count int) Result {
	if count < 1 {
		return Result{Err: fmt.Errorf("baseline: fused batch needs count >= 1, got %d", count)}
	}
	if !l.Supports(req.Routine) {
		return Result{Err: fmt.Errorf("%s does not implement %v", l.LibName, req.Routine)}
	}
	if req.Scenario != DataOnHost {
		return Result{Err: fmt.Errorf("baseline: fused batches support the data-on-host scenario only")}
	}
	return l.measure(req, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
		t0 := h.Now()
		for i := 0; i < count; i++ {
			ins, out := operands(h, req.Routine, req.N)
			submitRoutine(h, req.Routine, ins)
			h.MemoryCoherentAsync(out)
		}
		return t0, float64(count) * blasops.FlopsSquare(req.Routine, req.N)
	})
}
