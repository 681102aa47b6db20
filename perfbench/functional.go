package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
)

// functional: real float64 GEMM, SYR2K and TRSM at N=768, nb=256 with
// seeded random inputs. The host kernels and the matrix accessors inlined
// into them do nearly all the work and the cache moves real bytes;
// simulation is a small share. N=768 keeps an iteration near 5 s on a
// 2-CPU host, half the time N=1024 takes. Each result is checked against a
// random projection, which costs O(N²) against the O(N³) call.
const (
	funcN  = 768
	funcNB = 256
	// funcTol bounds a projection's error relative to the magnitude bound
	// of its terms: rounding gives about N·eps = 1.7e-13, so a wrong tile
	// is orders of magnitude above it.
	funcTol = 1e-10
)

// funcCall is one routine call of the workload.
type funcCall struct {
	name    string
	routine blasops.Routine
}

var funcCalls = []funcCall{
	{"gemm", blasops.Gemm},
	{"syr2k", blasops.Syr2k},
	{"trsm", blasops.Trsm},
}

const (
	funcAlpha = 0.75
	funcBeta  = -0.5
)

type functional struct {
	seed int64
	n    int
	h    *core.Handle
	used bool // the handle ran an iteration; the next one gets a fresh handle

	// Inputs, kept pristine; each iteration copies the outputs' initial
	// values from them.
	ga, gb, gc0 matrix.View // GEMM
	sa, sb, sc0 matrix.View // SYR2K, sc0 symmetric
	ta, tb0     matrix.View // TRSM, ta lower triangular and well conditioned
	// Working copies the calls overwrite.
	gc, sc, tb matrix.View

	x                  []float64
	gemmWant, gemmMag  []float64 // expected C·x and its magnitude bound
	syr2kWant, syr2kMg []float64
	trsmWant           []float64 // alpha·B·x

	flops float64 // of one iteration's calls
}

func (f *functional) workers() map[string]int {
	return map[string]int{"hostblas": runtime.NumCPU(), "sim": 1}
}

func newFuncHandle() *core.Handle {
	return core.NewHandle(core.Config{TileSize: funcNB, Functional: true, SimWorkers: 1})
}

func (f *functional) setup() error {
	hostblas.SetParallelism(runtime.NumCPU())
	f.h = newFuncHandle()
	f.used = false
	rng := rand.New(rand.NewSource(f.seed))
	n := f.n
	random := func() matrix.View { v := matrix.New(n, n); v.FillRandom(rng); return v }
	f.ga, f.gb, f.gc0 = random(), random(), random()
	f.sa, f.sb, f.sc0 = random(), random(), random()
	hostblas.SymmetrizeFrom(blasops.Lower, f.sc0, f.sc0)
	f.ta = matrix.New(n, n)
	f.ta.FillIdentityPlus(float64(n), rng)
	f.tb0 = random()
	f.gc, f.sc, f.tb = matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	f.x = make([]float64, n)
	for i := range f.x {
		f.x[i] = 2*rng.Float64() - 1
	}

	// GEMM: alpha·A·(B·x) + beta·C0·x.
	bx, bxMag := matVec(f.gb, f.x, false)
	abx, _ := matVec(f.ga, bx, false)
	_, abxMag := matVec(f.ga, bxMag, false)
	cx, cxMag := matVec(f.gc0, f.x, false)
	f.gemmWant, f.gemmMag = combine(funcAlpha, abx, abxMag, funcBeta, cx, cxMag)

	// SYR2K (lower, no transpose): alpha·(A·(Bᵀx) + B·(Aᵀx)) + beta·C0·x.
	btx, btxMag := matVec(f.sb, f.x, true)
	atx, atxMag := matVec(f.sa, f.x, true)
	t1, _ := matVec(f.sa, btx, false)
	_, t1Mag := matVec(f.sa, btxMag, false)
	t2, _ := matVec(f.sb, atx, false)
	_, t2Mag := matVec(f.sb, atxMag, false)
	for i := range t1 {
		t1[i] += t2[i]
		t1Mag[i] += t2Mag[i]
	}
	scx, scxMag := matVec(f.sc0, f.x, false)
	f.syr2kWant, f.syr2kMg = combine(funcAlpha, t1, t1Mag, funcBeta, scx, scxMag)

	// TRSM (left, lower, no transpose, non-unit): A·X = alpha·B.
	bx0, _ := matVec(f.tb0, f.x, false)
	f.trsmWant = make([]float64, n)
	for i := range bx0 {
		f.trsmWant[i] = funcAlpha * bx0[i]
	}
	f.flops = 0
	for _, c := range funcCalls {
		f.flops += blasops.FlopsSquare(c.routine, n)
	}
	return nil
}

// matVec returns op(v)·x and |op(v)|·|x|; passing a magnitude vector as x
// propagates the bound through a product.
func matVec(v matrix.View, x []float64, trans bool) (y, mag []float64) {
	if trans {
		y, mag = make([]float64, v.N), make([]float64, v.N)
		for j := 0; j < v.N; j++ {
			col := v.Data[j*v.LD : j*v.LD+v.M]
			for i, a := range col {
				y[j] += a * x[i]
				mag[j] += math.Abs(a * x[i])
			}
		}
		return y, mag
	}
	y, mag = make([]float64, v.M), make([]float64, v.M)
	for j := 0; j < v.N; j++ {
		col := v.Data[j*v.LD : j*v.LD+v.M]
		for i, a := range col {
			y[i] += a * x[j]
			mag[i] += math.Abs(a * x[j])
		}
	}
	return y, mag
}

// combine returns a·p + b·q and the matching magnitude bound.
func combine(a float64, p, pMag []float64, b float64, q, qMag []float64) (y, mag []float64) {
	y, mag = make([]float64, len(p)), make([]float64, len(p))
	for i := range p {
		y[i] = a*p[i] + b*q[i]
		mag[i] = math.Abs(a)*pMag[i] + math.Abs(b)*qMag[i]
	}
	return y, mag
}

// residual returns max|got−want| over the largest magnitude bound.
func residual(got, want, mag []float64) float64 {
	var err, scale float64
	for i := range got {
		err = max(err, math.Abs(got[i]-want[i]))
		scale = max(scale, mag[i])
	}
	return err / scale
}

func (f *functional) iterate(tr *tracer) (iteration, error) {
	// A fresh handle per iteration: a reused one keeps its device buffers,
	// which would make the first iteration unlike the others.
	if f.used {
		f.h = newFuncHandle()
	}
	f.used = true
	f.gc.CopyFrom(f.gc0)
	f.sc.CopyFrom(f.sc0)
	f.tb.CopyFrom(f.tb0)
	h := f.h
	var perr error
	it := measure(func() {
		perr = tr.profile("calls", func() {
			for _, c := range funcCalls {
				tr.do("functional."+c.name, func() { f.call(tr, c.name) })
			}
		})
	})
	if perr != nil {
		return it, perr
	}
	if err := h.RT.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "functional: %v\n", err)
		it.attempted, it.failed = len(funcCalls), len(funcCalls)
		return it, nil
	}
	for _, c := range funcCalls {
		it.attempted++
		if err := f.check(c.name); err != nil {
			it.failed++
			fmt.Fprintf(os.Stderr, "functional: seed %d: %s: %v\n", f.seed, c.name, err)
		} else {
			it.ops++
		}
	}
	return it, nil
}

// call registers one routine's operands and runs it to completion, with
// the result written back to host memory.
func (f *functional) call(tr *tracer, name string) {
	h := f.h
	var out *xkrt.Matrix
	tr.do("core.submit", func() {
		switch name {
		case "gemm":
			a, b, c := h.Register(f.ga), h.Register(f.gb), h.Register(f.gc)
			h.GemmAsync(core.NoTrans, core.NoTrans, funcAlpha, a, b, funcBeta, c)
			out = c
		case "syr2k":
			a, b, c := h.Register(f.sa), h.Register(f.sb), h.Register(f.sc)
			h.Syr2kAsync(blasops.Lower, core.NoTrans, funcAlpha, a, b, funcBeta, c)
			out = c
		case "trsm":
			a, b := h.Register(f.ta), h.Register(f.tb)
			h.TrsmAsync(blasops.Left, blasops.Lower, core.NoTrans, blasops.NonUnit, funcAlpha, a, b)
			out = b
		}
		h.MemoryCoherentAsync(out)
	})
	tr.do("core.sync", func() { h.Sync() })
}

// check verifies one call's host-memory result.
func (f *functional) check(name string) error {
	var r float64
	switch name {
	case "gemm":
		y, _ := matVec(f.gc, f.x, false)
		r = residual(y, f.gemmWant, f.gemmMag)
	case "syr2k":
		// The strict upper triangle must be untouched; the lower one,
		// mirrored, is the symmetric result.
		n := f.n
		full := matrix.New(n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i < j {
					if f.sc.At(i, j) != f.sc0.At(i, j) {
						return fmt.Errorf("upper triangle modified at (%d,%d)", i, j)
					}
					full.Set(i, j, f.sc.At(j, i))
				} else {
					full.Set(i, j, f.sc.At(i, j))
				}
			}
		}
		y, _ := matVec(full, f.x, false)
		r = residual(y, f.syr2kWant, f.syr2kMg)
	case "trsm":
		// A·(X·x) against alpha·B·x, scaled by |A|·|X|·|x|.
		xx, xxMag := matVec(f.tb, f.x, false)
		lower := matrix.New(f.n, f.n)
		for j := 0; j < f.n; j++ {
			for i := j; i < f.n; i++ {
				lower.Set(i, j, f.ta.At(i, j))
			}
		}
		y, _ := matVec(lower, xx, false)
		_, mag := matVec(lower, xxMag, false)
		_, bMag := matVec(f.tb0, f.x, false)
		for i := range mag {
			mag[i] += funcAlpha * bMag[i]
		}
		r = residual(y, f.trsmWant, mag)
	}
	if !(r <= funcTol) {
		return fmt.Errorf("relative residual %.3g exceeds %.0e", r, funcTol)
	}
	return nil
}

func (f *functional) layerMetrics(m metricSet, tr *tracer) {
	submit, sync := tr.total("core.submit"), tr.total("core.sync")
	m.set("core.submit_s", submit, "s")
	m.set("core.sync_s", sync, "s")
	m.set("core.host_gflops", f.flops/(submit+sync)/1e9, "GFlop/s")
	var c counters
	c.addHandle(f.h)
	setRuntimeCounters(m, c, submit+sync)
}
