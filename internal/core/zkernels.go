package core

import (
	"math/cmplx"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
	"xkblas/internal/zblas"
)

// Complex tile tasks. With ZGEMM, the Hermitian HEMM, HERK and HER2K
// complete the "9 standard BLAS subroutines" of §IV-D, and ZTRMM/ZTRSM the
// complex triangular pair; each runs the real routine's loop nest over
// these tasks. Complex matrices use the interleaved representation of
// matrix.ZMat, so every tile moves through the cache, the heuristics and
// the links as an ordinary float64 payload with twice the rows. Every
// task's flop count is 4× its real counterpart's.

// ConjTrans re-exported for complex callers.
const ConjTrans = blasops.ConjTrans

// RegisterZ tracks a complex host matrix decomposed into NB×NB complex
// tiles ((2·NB)×NB interleaved float64 tiles).
func (h *Handle) RegisterZ(z matrix.ZMat) *xkrt.Matrix {
	return h.RT.RegisterRect(z.V, 2*h.NB, h.NB)
}

// zkern submits the complex tile tasks. Its symm, syrk and syr2k tasks are
// HEMM, HERK and HER2K; the real alpha and beta of HERK (and the real beta
// of HER2K) arrive as complex numbers with zero imaginary part.
type zkern struct{ *Handle }

func (zkern) adj() Trans                     { return ConjTrans }
func (zkern) conj(x complex128) complex128   { return cmplx.Conj(x) }
func (zkern) dims(m *xkrt.Matrix) (int, int) { return m.View.M / 2, m.View.N }

// zTileDims reports the logical complex dims of an interleaved tile.
func zTileDims(t *cache.Tile) (m, n int) { return t.M / 2, t.N }

// zOpK reports the contraction dimension of op(A) given its tile.
func zOpK(ta Trans, a *cache.Tile) int {
	m, n := zTileDims(a)
	if ta == NoTrans {
		return n
	}
	return m
}

// zbuf wraps a device buffer view as a complex matrix.
func zbuf(v matrix.View) matrix.ZMat { return matrix.ZFromView(v) }

// gemm submits Ct = alpha·op(At)·op(Bt) + beta·Ct on complex tiles.
func (z zkern) gemm(ta, tb Trans, alpha complex128, at, bt *cache.Tile, beta complex128, ct *cache.Tile, prio int) {
	m, n := zTileDims(ct)
	k := zOpK(ta, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Zgemm,
		M:       m, N: n, K: k,
		Flops: 8 * float64(m) * float64(n) * float64(k),
		Body: func(b []matrix.View) {
			zblas.Gemm(ta, tb, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2]))
		},
	}
	z.RT.Submit("zgemm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// symm submits the diagonal-block HEMM tile update.
func (z zkern) symm(side Side, uplo Uplo, alpha complex128, at, bt *cache.Tile, beta complex128, ct *cache.Tile, prio int) {
	m, n := zTileDims(ct)
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Hemm,
		M:       m, N: n, K: dim,
		Flops: 8 * float64(dim) * float64(m) * float64(n),
		Body: func(b []matrix.View) {
			zblas.Hemm(side, uplo, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2]))
		},
	}
	z.RT.Submit("hemm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// syrk submits the diagonal-block HERK tile update.
func (z zkern) syrk(uplo Uplo, trans Trans, alpha complex128, at *cache.Tile, beta complex128, ct *cache.Tile, prio int) {
	n, _ := zTileDims(ct)
	k := zOpK(trans, at)
	ra, rb := real(alpha), real(beta)
	spec := xkrt.KernelSpec{
		Routine: blasops.Herk,
		M:       n, N: n, K: k,
		Flops: 4 * float64(k) * float64(n) * float64(n+1),
		Body: func(b []matrix.View) {
			zblas.Herk(uplo, trans, ra, zbuf(b[0]), rb, zbuf(b[1]))
		},
	}
	z.RT.Submit("herk", spec, prio, xkrt.R(at), xkrt.RW(ct))
}

// syr2k submits the diagonal-block HER2K tile update.
func (z zkern) syr2k(uplo Uplo, trans Trans, alpha complex128, at, bt *cache.Tile, beta complex128, ct *cache.Tile, prio int) {
	n, _ := zTileDims(ct)
	k := zOpK(trans, at)
	rb := real(beta)
	spec := xkrt.KernelSpec{
		Routine: blasops.Her2k,
		M:       n, N: n, K: k,
		Flops: 8 * float64(k) * float64(n) * float64(n+1),
		Body: func(b []matrix.View) {
			zblas.Her2k(uplo, trans, alpha, zbuf(b[0]), zbuf(b[1]), rb, zbuf(b[2]))
		},
	}
	z.RT.Submit("her2k", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// trmm submits the diagonal-block complex TRMM.
func (z zkern) trmm(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, at, bt *cache.Tile, prio int) {
	m, n := zTileDims(bt)
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trmm,
		M:       m, N: n, K: dim,
		Flops: 4 * float64(n) * float64(m) * float64(dim),
		Body: func(b []matrix.View) {
			zblas.Trmm(side, uplo, ta, diag, alpha, zbuf(b[0]), zbuf(b[1]))
		},
	}
	z.RT.Submit("ztrmm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// trsm submits the diagonal-block complex TRSM.
func (z zkern) trsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, at, bt *cache.Tile, prio int) {
	m, n := zTileDims(bt)
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trsm,
		M:       m, N: n, K: dim,
		Flops: 4 * float64(n) * float64(m) * float64(dim),
		Body: func(b []matrix.View) {
			zblas.Trsm(side, uplo, ta, diag, alpha, zbuf(b[0]), zbuf(b[1]))
		},
	}
	z.RT.Submit("ztrsm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// scal scales a complex tile in place.
func (z zkern) scal(beta complex128, ct *cache.Tile, prio int) {
	m, n := zTileDims(ct)
	spec := xkrt.KernelSpec{
		Routine: blasops.Zgemm,
		M:       m, N: n, K: 1,
		Flops: 4 * float64(m) * float64(n),
		Body: func(b []matrix.View) {
			zblas.Scal(beta, zbuf(b[0]))
		},
	}
	z.RT.Submit("zscal", spec, prio, xkrt.RW(ct))
}

// scalTri scales the uplo triangle of a diagonal tile of a Hermitian C by
// the real beta and makes its diagonal real (HERK/HER2K with alpha = 0).
func (z zkern) scalTri(uplo Uplo, beta complex128, ct *cache.Tile, prio int) {
	m, n := zTileDims(ct)
	rb := real(beta)
	spec := xkrt.KernelSpec{
		Routine: blasops.Zgemm,
		M:       m, N: n, K: 1,
		Flops: 4 * float64(m) * float64(n) / 2,
		Body: func(b []matrix.View) {
			zblas.ScalHerm(uplo, rb, zbuf(b[0]))
		},
	}
	z.RT.Submit("zscal-herm", spec, prio, xkrt.RW(ct))
}
