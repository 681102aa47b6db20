package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/trace"
	"xkblas/internal/xkrt"
)

// cublasMGLib models the cuBLAS-MG early-access library (§II-A): GEMM only,
// each matrix distributed over the devices in a 2D block-cyclic layout.
// For the paper's data-on-host methodology the distribution of the operands
// and the collection of the result are part of the call — and of the
// measured time — which is why cuBLAS-MG trails XKBlas by ~13% despite an
// efficient distributed kernel phase.
type cublasMGLib struct {
	std StdLib // cuBLAS-MG's policy, behind the GEMM driver below
}

// CuBLASMG returns the cuBLAS-MG model. Peer transfers between the
// block-cyclic homes use NVLink when available but without topology
// ranking or forwarding heuristics.
func CuBLASMG() Library {
	return &cublasMGLib{std: StdLib{
		LibName:  "cuBLAS-MG",
		Routines: gemmOnly,
		Opts: xkrt.Options{
			Window: 3,
			Policy: policy.Bundle{
				Source:    policy.LowestID{},
				Scheduler: policy.WorkStealing{},
				Evictor:   policy.LRUReadOnlyFirst{},
			},
		},
	}}
}

func (l *cublasMGLib) Name() string { return l.std.Name() }

func (l *cublasMGLib) Supports(r blasops.Routine) bool { return l.std.Supports(r) }

func (l *cublasMGLib) Run(req Request) Result {
	if req.Routine != blasops.Gemm {
		return Result{Err: fmt.Errorf("cuBLAS-MG only implements GEMM")}
	}
	return l.std.measure(req, func(h *core.Handle, rec *trace.Recorder) (sim.Time, float64) {
		n := req.N
		A := h.Register(matrix.NewShape(n, n))
		B := h.Register(matrix.NewShape(n, n))
		C := h.Register(matrix.NewShape(n, n))
		if req.Scenario == DataOnDevice {
			// Distribution outside the timed section, like the other DoD
			// runs.
			distribute(h, rec, A, B, C)
		}
		t0 := h.Now()
		if req.Scenario == DataOnHost {
			// cublasMg's own 2D distribution is inside the call.
			p, q := dodGrid(len(h.Plat.GPUs))
			for _, m := range []*xkrt.Matrix{A, B, C} {
				h.Distribute2DBlockCyclicAsync(m, p, q)
			}
		}
		h.GemmAsync(core.NoTrans, core.NoTrans, 1, A, B, 1, C)
		if req.Scenario == DataOnHost {
			h.MemoryCoherentAsync(C)
		}
		return t0, blasops.FlopsSquare(blasops.Gemm, n)
	})
}
