package core

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
)

// Tile-kernel task constructors. Each submits one dataflow task whose
// functional body calls the reference host kernel on the dense device tile
// buffers (access order = buffer order) and whose timing is derived from
// the tile dimensions via the platform kernel model.
//
// Each PLASMA loop nest (gemm.go, symm.go, syrk.go, trmm.go, trsm.go) is
// written once, generic over the element type, and takes its tile tasks
// from a kernels value: dkern for the real routines, zkern (zkernels.go)
// for the complex and Hermitian ones.

// scalar is the element type of a tiled routine.
type scalar interface{ float64 | complex128 }

// kernels is what a loop nest needs from its element type T: the tile
// tasks, plus the few facts in which the real and complex nests differ.
type kernels[T scalar] interface {
	// adj is the adjoint flag: Transpose on real data, ConjTrans on
	// complex data.
	adj() Trans
	// conj is complex conjugation, the identity on real data; the second
	// SYR2K/HER2K update is scaled by conj(alpha).
	conj(x T) T
	// dims reports a matrix's logical element dimensions (a complex
	// matrix is stored as interleaved float64 rows, two per element row).
	dims(m *xkrt.Matrix) (rows, cols int)

	gemm(ta, tb Trans, alpha T, at, bt *cache.Tile, beta T, ct *cache.Tile, prio int)
	// symm, syrk and syr2k are HEMM, HERK and HER2K on complex data.
	symm(side Side, uplo Uplo, alpha T, at, bt *cache.Tile, beta T, ct *cache.Tile, prio int)
	syrk(uplo Uplo, trans Trans, alpha T, at *cache.Tile, beta T, ct *cache.Tile, prio int)
	syr2k(uplo Uplo, trans Trans, alpha T, at, bt *cache.Tile, beta T, ct *cache.Tile, prio int)
	trmm(side Side, uplo Uplo, ta Trans, diag Diag, alpha T, at, bt *cache.Tile, prio int)
	trsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha T, at, bt *cache.Tile, prio int)
	// scal and scalTri are the alpha = 0 paths: Ct = beta·Ct on the whole
	// tile, or on the uplo triangle of a diagonal tile of a symmetric
	// (Hermitian) C.
	scal(beta T, ct *cache.Tile, prio int)
	scalTri(uplo Uplo, beta T, ct *cache.Tile, prio int)
}

// requireSquareGrid panics unless the matrix is logically square (the
// triangular-operand precondition).
func requireSquareGrid[T scalar](kern kernels[T], name string, m *xkrt.Matrix) {
	if rows, cols := kern.dims(m); rows != cols {
		panic(fmt.Sprintf("core: %s requires a square matrix, got %dx%d", name, rows, cols))
	}
}

// dkern submits the real (FP64) tile tasks.
type dkern struct{ *Handle }

func (dkern) adj() Trans                     { return Transpose }
func (dkern) conj(x float64) float64         { return x }
func (dkern) dims(m *xkrt.Matrix) (int, int) { return m.View.M, m.View.N }

// opK reports the contraction dimension of op(A) given its tile.
func opK(ta Trans, a *cache.Tile) int {
	if ta == NoTrans {
		return a.N
	}
	return a.M
}

// gemm submits Ct = alpha·op(At)·op(Bt) + beta·Ct.
func (d dkern) gemm(ta, tb Trans, alpha float64, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	m, n, k := ct.M, ct.N, opK(ta, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Gemm,
		M:       m, N: n, K: k,
		Flops: 2 * float64(m) * float64(n) * float64(k),
		Body: func(b []matrix.View) {
			hostblas.Gemm(ta, tb, alpha, b[0], b[1], beta, b[2])
		},
	}
	d.RT.Submit("gemm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// symm submits the diagonal-block SYMM tile update.
func (d dkern) symm(side Side, uplo Uplo, alpha float64, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	m, n := ct.M, ct.N
	dim := m
	if side == Right {
		dim = n
	}
	// Standard count: side L → 2·m²·n, side R → 2·m·n².
	flops := 2 * float64(dim) * float64(m) * float64(n)
	spec := xkrt.KernelSpec{
		Routine: blasops.Symm,
		M:       m, N: n, K: dim,
		Flops: flops,
		Body: func(b []matrix.View) {
			hostblas.Symm(side, uplo, alpha, b[0], b[1], beta, b[2])
		},
	}
	d.RT.Submit("symm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// syrk submits the diagonal-block SYRK tile update.
func (d dkern) syrk(uplo Uplo, trans Trans, alpha float64, at *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	n := ct.N
	k := opK(trans, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Syrk,
		M:       n, N: n, K: k,
		Flops: float64(k) * float64(n) * float64(n+1),
		Body: func(b []matrix.View) {
			hostblas.Syrk(uplo, trans, alpha, b[0], beta, b[1])
		},
	}
	d.RT.Submit("syrk", spec, prio, xkrt.R(at), xkrt.RW(ct))
}

// syr2k submits the diagonal-block SYR2K tile update.
func (d dkern) syr2k(uplo Uplo, trans Trans, alpha float64, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	n := ct.N
	k := opK(trans, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Syr2k,
		M:       n, N: n, K: k,
		Flops: 2 * float64(k) * float64(n) * float64(n+1),
		Body: func(b []matrix.View) {
			hostblas.Syr2k(uplo, trans, alpha, b[0], b[1], beta, b[2])
		},
	}
	d.RT.Submit("syr2k", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// trmm submits the diagonal-block TRMM: Bt = alpha·op(At)·Bt (or right
// side variant).
func (d dkern) trmm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, at, bt *cache.Tile, prio int) {
	m, n := bt.M, bt.N
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trmm,
		M:       m, N: n, K: dim,
		Flops: float64(n) * float64(m) * float64(dim),
		Body: func(b []matrix.View) {
			hostblas.Trmm(side, uplo, ta, diag, alpha, b[0], b[1])
		},
	}
	d.RT.Submit("trmm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// trsm submits the diagonal-block TRSM: solve op(At)·X = alpha·Bt in place
// (or right side variant).
func (d dkern) trsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, at, bt *cache.Tile, prio int) {
	m, n := bt.M, bt.N
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trsm,
		M:       m, N: n, K: dim,
		Flops: float64(n) * float64(m) * float64(dim),
		Body: func(b []matrix.View) {
			hostblas.Trsm(side, uplo, ta, diag, alpha, b[0], b[1])
		},
	}
	d.RT.Submit("trsm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// scal scales a tile in place.
func (d dkern) scal(beta float64, ct *cache.Tile, prio int) {
	spec := xkrt.KernelSpec{
		Routine: blasops.Gemm,
		M:       ct.M, N: ct.N, K: 1,
		Flops: float64(ct.M) * float64(ct.N),
		Body: func(b []matrix.View) {
			hostblas.Scal(beta, b[0])
		},
	}
	d.RT.Submit("scal", spec, prio, xkrt.RW(ct))
}

// scalTri scales only the uplo triangle of a diagonal tile.
func (d dkern) scalTri(uplo Uplo, beta float64, ct *cache.Tile, prio int) {
	spec := xkrt.KernelSpec{
		Routine: blasops.Gemm,
		M:       ct.M, N: ct.N, K: 1,
		Flops: float64(ct.M) * float64(ct.N) / 2,
		Body: func(b []matrix.View) {
			v := b[0]
			for j := 0; j < v.N; j++ {
				lo, hi := 0, j+1
				if uplo == Lower {
					lo, hi = j, v.M
				}
				for i := lo; i < hi; i++ {
					v.Set(i, j, beta*v.At(i, j))
				}
			}
		},
	}
	d.RT.Submit("scal-tri", spec, prio, xkrt.RW(ct))
}
