package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
)

// Error-path and degenerate-input coverage for the public algorithm layer.

// expectPanic checks that fn panics with one of the package's own "core:"
// messages, not a runtime error from deeper down.
func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: expected panic", name)
		} else if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "core: ") {
			t.Errorf("%s: panic %q is not a core: message", name, msg)
		}
	}()
	fn()
}

func TestShapeMismatchesPanic(t *testing.T) {
	h := NewHandle(Config{TileSize: 8})
	sq := h.Register(matrix.NewShape(16, 16))
	rect := h.Register(matrix.NewShape(16, 24))
	tall := h.Register(matrix.NewShape(24, 16))

	expectPanic(t, "gemm grid", func() {
		h.GemmAsync(NoTrans, NoTrans, 1, rect, rect, 1, sq)
	})
	expectPanic(t, "symm triangular", func() {
		h.SymmAsync(Left, Lower, 1, rect, sq, 1, sq)
	})
	expectPanic(t, "syrk square C", func() {
		h.SyrkAsync(Lower, NoTrans, 1, sq, 1, rect)
	})
	expectPanic(t, "syr2k rows", func() {
		h.Syr2kAsync(Lower, NoTrans, 1, tall, tall, 1, sq)
	})
	expectPanic(t, "trsm left grid", func() {
		h.TrsmAsync(Left, Lower, NoTrans, NonUnit, 1, rect, sq)
	})
	expectPanic(t, "trmm right grid", func() {
		h.TrmmAsync(Right, Lower, NoTrans, NonUnit, 1, tall, rect)
	})
	expectPanic(t, "zgemm grid", func() {
		a := h.RegisterZ(matrix.NewZShape(16, 24))
		c := h.RegisterZ(matrix.NewZShape(16, 16))
		h.ZgemmAsync(NoTrans, NoTrans, 1, a, a, 1, c)
	})
	expectPanic(t, "zherk square", func() {
		a := h.RegisterZ(matrix.NewZShape(16, 16))
		c := h.RegisterZ(matrix.NewZShape(16, 24))
		h.ZherkAsync(Lower, NoTrans, 1, a, 1, c)
	})
	// The complex routines check their operand grids like the real ones.
	zsq := h.RegisterZ(matrix.NewZShape(16, 16))
	zwide := h.RegisterZ(matrix.NewZShape(16, 24))
	zsmall := h.RegisterZ(matrix.NewZShape(8, 8))
	expectPanic(t, "zhemm B grid", func() {
		h.ZhemmAsync(Left, Lower, 1, zsq, zwide, 1, zsq)
	})
	expectPanic(t, "zher2k op(B) grid", func() {
		h.Zher2kAsync(Lower, NoTrans, 1, zsq, zwide, 1, zsq)
	})
	expectPanic(t, "zhemm A smaller than C", func() {
		h.ZhemmAsync(Left, Lower, 1, zsmall, zsq, 1, zsq)
	})
	// HERK and HER2K take op ∈ {N, C}; a plain transpose is refused at
	// submission, not inside a tile kernel.
	expectPanic(t, "zherk trans T", func() {
		h.ZherkAsync(Lower, Transpose, 1, zsq, 1, zsq)
	})
	expectPanic(t, "zher2k trans T", func() {
		h.Zher2kAsync(Lower, Transpose, 1, zsq, zsq, 1, zsq)
	})
}

// TestSyrkAlphaZeroScalesTriangleOnly: with alpha = 0 the rank-k and
// rank-2k updates only scale the stored triangle of C by beta (HERK and
// HER2K also make its diagonal real). A and B are not read, the opposite
// triangle is untouched, and there is one task per stored C tile.
func TestSyrkAlphaZeroScalesTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	n := 24
	for _, rank2 := range []bool{false, true} {
		h := NewHandle(Config{TileSize: 8, Functional: true})
		av, bv := matrix.New(n, n), matrix.New(n, n)
		av.FillRandom(rng)
		bv.FillRandom(rng)
		av.Set(1, 1, math.NaN())
		bv.Set(2, 0, math.NaN())
		cv := matrix.New(n, n)
		cv.FillRandom(rng)
		want := cv.Clone()
		A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
		label := "syrk alpha=0"
		if rank2 {
			label = "syr2k alpha=0"
			hostblas.Syr2k(Lower, NoTrans, 0, av, bv, 0.5, want)
			h.Syr2kAsync(Lower, NoTrans, 0, A, B, 0.5, C)
		} else {
			hostblas.Syrk(Lower, NoTrans, 0, av, 0.5, want)
			h.SyrkAsync(Lower, NoTrans, 0, A, 0.5, C)
		}
		expectTasks(t, h, 6, label)
		h.MemoryCoherentAsync(C)
		h.Sync()
		// The reference leaves the strict upper triangle as it was, so the
		// bitwise match also shows beta scaling did not leak above the
		// diagonal.
		expectBits(t, cv.Data, want.Data, label)
	}

	for _, rank2 := range []bool{false, true} {
		h := NewHandle(Config{TileSize: 8, Functional: true})
		az, bz, cz := randZMat(rng, n, n), randZMat(rng, n, n), randZMat(rng, n, n)
		az.Set(1, 1, cmplx.NaN())
		bz.Set(2, 0, cmplx.NaN())
		want := cz.Clone()
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				want.Set(i, j, complex(0.5, 0)*cz.At(i, j))
			}
			want.Set(j, j, complex(0.5*real(cz.At(j, j)), 0))
		}
		A, B, C := h.RegisterZ(az), h.RegisterZ(bz), h.RegisterZ(cz)
		label := "zherk alpha=0"
		if rank2 {
			label = "zher2k alpha=0"
			h.Zher2kAsync(Lower, NoTrans, 0, A, B, 0.5, C)
		} else {
			h.ZherkAsync(Lower, NoTrans, 0, A, 0.5, C)
		}
		expectTasks(t, h, 6, label)
		h.MemoryCoherentAsync(C)
		h.Sync()
		expectBits(t, cz.V.Data, want.V.Data, label)
	}
}

// TestTrmmAlphaZeroZeroesB: with alpha = 0, TRMM and ZTRMM set B = 0
// without reading A or B, one task per B tile.
func TestTrmmAlphaZeroZeroesB(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	av := matrix.New(16, 16)
	av.FillRandom(rng)
	bv := matrix.New(16, 16)
	bv.FillRandom(rng)
	av.Set(0, 0, math.NaN())
	bv.Set(5, 9, math.NaN())
	A, B := h.Register(av), h.Register(bv)
	h.TrmmAsync(Left, Lower, NoTrans, NonUnit, 0, A, B)
	expectTasks(t, h, 4, "trmm alpha=0")
	h.MemoryCoherentAsync(B)
	h.Sync()
	expectBits(t, bv.Data, make([]float64, len(bv.Data)), "trmm alpha=0")

	h = NewHandle(Config{TileSize: 8, Functional: true})
	az, bz := randZMat(rng, 16, 16), randZMat(rng, 16, 16)
	az.Set(0, 0, cmplx.NaN())
	bz.Set(5, 9, cmplx.NaN())
	A, B = h.RegisterZ(az), h.RegisterZ(bz)
	h.ZtrmmAsync(Left, Lower, NoTrans, NonUnit, 0, A, B)
	expectTasks(t, h, 4, "ztrmm alpha=0")
	h.MemoryCoherentAsync(B)
	h.Sync()
	expectBits(t, bz.V.Data, make([]float64, len(bz.V.Data)), "ztrmm alpha=0")
}

func TestGemmAsyncRectangularKDominant(t *testing.T) {
	// Deep-k rectangular GEMM: C(8×12) = A(8×40)·B(40×12) with edge tiles
	// in every dimension.
	rng := rand.New(rand.NewSource(62))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	m, n, k := 8, 12, 40
	av := matrix.New(m, k)
	bv := matrix.New(k, n)
	cv := matrix.New(m, n)
	av.FillRandom(rng)
	bv.FillRandom(rng)
	cv.FillRandom(rng)
	want := cv.Clone()
	hostblas.Gemm(NoTrans, NoTrans, 1, av, bv, 1, want)
	A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
	h.GemmAsync(NoTrans, NoTrans, 1, A, B, 1, C)
	h.MemoryCoherentAsync(C)
	h.Sync()
	if d := matrix.MaxAbsDiff(cv, want); d > 1e-11 {
		t.Fatalf("deep-k gemm diff %g", d)
	}
}
