package core

import (
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/xkrt"
)

// SymmAsync submits C = alpha·A·B + beta·C (side Left, A symmetric stored
// in the uplo triangle) or C = alpha·B·A + beta·C (side Right). Diagonal
// tile products use the SYMM tile kernel; off-diagonal products read the
// stored triangle directly or transposed (the PLASMA pdsymm scheme).
func (h *Handle) SymmAsync(side Side, uplo Uplo, alpha float64, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	symmNest(dkern{h}, "symm", side, uplo, alpha, a, b, beta, c)
}

// ZhemmAsync submits C = alpha·A·B + beta·C with A Hermitian (side Left)
// or C = alpha·B·A + beta·C (side Right): SymmAsync's nest, with
// off-diagonal blocks of the unstored triangle read conjugate-transposed.
func (h *Handle) ZhemmAsync(side Side, uplo Uplo, alpha complex128, a, b *xkrt.Matrix, beta complex128, c *xkrt.Matrix) {
	symmNest(zkern{h}, "zhemm", side, uplo, alpha, a, b, beta, c)
}

// symmNest is the PLASMA pdsymm loop nest of SYMM and HEMM.
func symmNest[T scalar](kern kernels[T], name string, side Side, uplo Uplo, alpha T, a, b *xkrt.Matrix, beta T, c *xkrt.Matrix) {
	requireSquareGrid(kern, name, a)
	mt, nt := c.Rows(), c.Cols()
	if b.Rows() != mt || b.Cols() != nt {
		panic(fmt.Sprintf("core: %s B grid %dx%d vs C %dx%d", name, b.Rows(), b.Cols(), mt, nt))
	}
	if side == Left && a.Rows() != mt {
		panic(fmt.Sprintf("core: %s left A grid %d vs C rows %d", name, a.Rows(), mt))
	}
	if side == Right && a.Rows() != nt {
		panic(fmt.Sprintf("core: %s right A grid %d vs C cols %d", name, a.Rows(), nt))
	}
	if alpha == 0 {
		c.EachTile(func(_, _ int, t *cache.Tile) { kern.scal(beta, t, 0) })
		return
	}
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			ct := c.Tile(i, j)
			if side == Left {
				// C[i,j] += Σ_k sym(A)[i,k]·B[k,j].
				for k := 0; k < mt; k++ {
					bta := beta
					if k > 0 {
						bta = 1
					}
					switch {
					case k == i:
						kern.symm(Left, uplo, alpha, a.Tile(i, i), b.Tile(k, j), bta, ct, 0)
					case stored(uplo, i, k):
						kern.gemm(NoTrans, NoTrans, alpha, a.Tile(i, k), b.Tile(k, j), bta, ct, 0)
					default:
						kern.gemm(kern.adj(), NoTrans, alpha, a.Tile(k, i), b.Tile(k, j), bta, ct, 0)
					}
				}
				continue
			}
			// Side Right: C[i,j] += Σ_k B[i,k]·sym(A)[k,j].
			for k := 0; k < nt; k++ {
				bta := beta
				if k > 0 {
					bta = 1
				}
				switch {
				case k == j:
					kern.symm(Right, uplo, alpha, a.Tile(j, j), b.Tile(i, k), bta, ct, 0)
				case stored(uplo, k, j):
					kern.gemm(NoTrans, NoTrans, alpha, b.Tile(i, k), a.Tile(k, j), bta, ct, 0)
				default:
					kern.gemm(NoTrans, kern.adj(), alpha, b.Tile(i, k), a.Tile(j, k), bta, ct, 0)
				}
			}
		}
	}
}
