package hostblas

import "xkblas/internal/matrix"

// The reference loops below are the oracle the production kernels are
// checked against bit for bit. They read every operand through View.At, one
// element per flop, in netlib order: each output element receives its
// IEEE operations in the order these loops issue them. A production kernel
// may reorder loops, block rows and columns or keep sums in registers, but
// never the operations one element receives.
//
// The α = 0 / β = 0 contract is netlib's: β = 0 writes C without reading
// it, and α = 0 reads neither A nor B.

// opAt reads element (i,j) of op(A).
func opAt(t Trans, a matrix.View, i, j int) float64 {
	if t == NoTrans {
		return a.At(i, j)
	}
	return a.At(j, i)
}

func refScale(beta float64, c matrix.View) {
	switch beta {
	case 1:
		return
	case 0:
		for j := 0; j < c.N; j++ {
			for i := 0; i < c.M; i++ {
				c.Set(i, j, 0)
			}
		}
	default:
		for j := 0; j < c.N; j++ {
			for i := 0; i < c.M; i++ {
				c.Set(i, j, beta*c.At(i, j))
			}
		}
	}
}

func refScaleTri(uplo Uplo, beta float64, c matrix.View) {
	if beta == 1 {
		return
	}
	for j := 0; j < c.N; j++ {
		lo, hi := triRange(uplo, j, c.N)
		for i := lo; i < hi; i++ {
			if beta == 0 {
				c.Set(i, j, 0)
			} else {
				c.Set(i, j, beta*c.At(i, j))
			}
		}
	}
}

// refGemm is netlib DGEMM's loop order: column j, then l ascending, then
// the rows, skipping a zero alpha·B(l,j).
func refGemm(ta, tb Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	k := a.N
	if ta == Transpose {
		k = a.M
	}
	refScale(beta, c)
	if alpha == 0 {
		return
	}
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			blj := alpha * opAt(tb, b, l, j)
			if blj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				c.Add(i, j, opAt(ta, a, i, l)*blj)
			}
		}
	}
}

// refSyrk forms each stored element of C as one dot product over l.
func refSyrk(uplo Uplo, trans Trans, alpha float64, a matrix.View, beta float64, c matrix.View) {
	n := c.N
	k := a.N
	if trans == Transpose {
		k = a.M
	}
	if alpha == 0 {
		refScaleTri(uplo, beta, c)
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += opAt(trans, a, i, l) * opAt(trans, a, j, l)
			}
			if beta == 0 {
				c.Set(i, j, alpha*s)
			} else {
				c.Set(i, j, alpha*s+beta*c.At(i, j))
			}
		}
	}
}

// refSyr2k adds both rank-k products inside one sum per element.
func refSyr2k(uplo Uplo, trans Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	n := c.N
	k := a.N
	if trans == Transpose {
		k = a.M
	}
	if alpha == 0 {
		refScaleTri(uplo, beta, c)
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += opAt(trans, a, i, l)*opAt(trans, b, j, l) +
					opAt(trans, b, i, l)*opAt(trans, a, j, l)
			}
			if beta == 0 {
				c.Set(i, j, alpha*s)
			} else {
				c.Set(i, j, alpha*s+beta*c.At(i, j))
			}
		}
	}
}

// refTrsm substitutes element by element: x = (alpha·b − Σ op(A)·x) / diag,
// the sum over the already solved unknowns in ascending index order.
func refTrsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	if alpha == 0 {
		refScale(0, b)
		return
	}
	lowerEff := (uplo == Lower) == (ta == NoTrans)
	if side == Left {
		for j := 0; j < n; j++ {
			if lowerEff {
				for i := 0; i < m; i++ {
					s := alpha * b.At(i, j)
					for l := 0; l < i; l++ {
						s -= triOpAt(uplo, ta, diag, a, i, l) * b.At(l, j)
					}
					b.Set(i, j, s/triOpAt(uplo, ta, diag, a, i, i))
				}
			} else {
				for i := m - 1; i >= 0; i-- {
					s := alpha * b.At(i, j)
					for l := i + 1; l < m; l++ {
						s -= triOpAt(uplo, ta, diag, a, i, l) * b.At(l, j)
					}
					b.Set(i, j, s/triOpAt(uplo, ta, diag, a, i, i))
				}
			}
		}
		return
	}
	// Side Right: row i of X satisfies Σ_l X[i,l]·op(A)[l,j] = alpha·B[i,j].
	for i := 0; i < m; i++ {
		if lowerEff {
			// op(A) lower: column j depends on X[i,l] for l ≥ j → solve
			// decreasing j.
			for j := n - 1; j >= 0; j-- {
				s := alpha * b.At(i, j)
				for l := j + 1; l < n; l++ {
					s -= b.At(i, l) * triOpAt(uplo, ta, diag, a, l, j)
				}
				b.Set(i, j, s/triOpAt(uplo, ta, diag, a, j, j))
			}
		} else {
			for j := 0; j < n; j++ {
				s := alpha * b.At(i, j)
				for l := 0; l < j; l++ {
					s -= b.At(i, l) * triOpAt(uplo, ta, diag, a, l, j)
				}
				b.Set(i, j, s/triOpAt(uplo, ta, diag, a, j, j))
			}
		}
	}
}
