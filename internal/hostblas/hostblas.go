// Package hostblas implements the six FP64 level-3 BLAS subroutines on
// column-major views, with full netlib flag coverage (trans/side/uplo/diag),
// plus the unblocked factorization kernels. It plays two roles in the
// reproduction:
//
//   - ground truth: every tiled multi-GPU algorithm is checked against it in
//     functional mode;
//   - kernel body: in functional mode, simulated GPU kernels execute these
//     routines on the tile operands while the simulator charges modelled
//     V100 time.
//
// Each routine has one implementation, and it is bit-identical to the
// netlib-order reference loops kept in ref_test.go: every output element
// receives the same IEEE operations in the same order. GEMM, TRSM, SYRK and
// SYR2K get their speed from loop order alone. They read operands in place
// through strides, keep partial sums in registers across the reduction and
// share each operand load among several outputs; they allocate nothing and
// pack nothing. SYMM and TRMM keep the plain element loops. The α = 0 and
// β = 0 cases follow netlib: β = 0 writes C without reading it, α = 0 reads
// neither A nor B.
package hostblas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xkblas/internal/blasops"
	"xkblas/internal/matrix"
)

// GEMM is the dominant functional-mode kernel (every tiled algorithm lowers
// most of its flops onto it), so it alone is parallelised: the output
// columns are block-partitioned across goroutines. Each goroutine owns a
// disjoint column range of C and executes the identical per-column loops,
// so the result is bit-identical to the sequential kernel regardless of the
// worker count.

// gemmParallelMinFlops is the fused-multiply-add count below which the
// goroutine fan-out costs more than it saves and Gemm stays sequential.
const gemmParallelMinFlops = 1 << 20

// gemmWorkers holds the configured worker count; 0 selects GOMAXPROCS.
var gemmWorkers atomic.Int32

// SetParallelism sets the number of goroutines Gemm may use: n ≤ 1 forces
// the sequential kernel (tests use this), 0 restores the GOMAXPROCS
// default. The result is bit-identical at every setting.
func SetParallelism(n int) { gemmWorkers.Store(int32(n)) }

// Parallelism reports the effective Gemm worker count. Per the
// SetParallelism contract, every stored value ≤ 1 — including negatives —
// selects the sequential kernel; only the 0 default falls back to
// GOMAXPROCS.
func Parallelism() int {
	n := int(gemmWorkers.Load())
	if n > 0 {
		return n
	}
	if n < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

type (
	// Trans etc. are re-exported aliases so kernel code reads naturally.
	Trans = blasops.Trans
	Side  = blasops.Side
	Uplo  = blasops.Uplo
	Diag  = blasops.Diag
)

// Flag constants re-exported from blasops.
const (
	NoTrans   = blasops.NoTrans
	Transpose = blasops.Transpose
	Left      = blasops.Left
	Right     = blasops.Right
	Lower     = blasops.Lower
	Upper     = blasops.Upper
	NonUnit   = blasops.NonUnit
	Unit      = blasops.Unit
)

// symAt reads element (i,j) of a symmetric matrix stored in one triangle.
func symAt(uplo Uplo, a matrix.View, i, j int) float64 {
	if uplo == Lower {
		if i >= j {
			return a.At(i, j)
		}
		return a.At(j, i)
	}
	if i <= j {
		return a.At(i, j)
	}
	return a.At(j, i)
}

// triOpAt reads element (i,j) of op(A) where A is triangular with the given
// stored triangle and diagonal convention; elements outside the triangle of
// op(A) read as zero. Any op other than NoTrans transposes: on real data
// ConjTrans is Transpose.
func triOpAt(uplo Uplo, ta Trans, diag Diag, a matrix.View, i, j int) float64 {
	ii, jj := i, j
	if ta != NoTrans {
		ii, jj = j, i
	}
	if ii == jj {
		if diag == Unit {
			return 1
		}
		return a.At(ii, ii)
	}
	if uplo == Lower {
		if ii > jj {
			return a.At(ii, jj)
		}
		return 0
	}
	if ii < jj {
		return a.At(ii, jj)
	}
	return 0
}

// opStrides returns the steps between consecutive rows and between
// consecutive columns of op(v) in v.Data: op(v)(i,j) = v.Data[i*rs+j*cs].
// The kernels read operands in place through these strides; nothing is
// packed or copied.
func opStrides(t Trans, v matrix.View) (rs, cs int) {
	if t == NoTrans {
		return 1, v.LD
	}
	return v.LD, 1
}

// col returns column j of v as a slice of its v.M elements.
func col(v matrix.View, j int) []float64 { return v.Data[j*v.LD : j*v.LD+v.M] }

// scale sets c = beta·c; beta = 0 writes zeros without reading c.
func scale(beta float64, c matrix.View) {
	if beta == 1 || c.M == 0 {
		return
	}
	for j := 0; j < c.N; j++ {
		cj := col(c, j)
		if beta == 0 {
			clear(cj)
			continue
		}
		for i := range cj {
			cj[i] = beta * cj[i]
		}
	}
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C, with C m×n, op(A) m×k and
// op(B) k×n.
func Gemm(ta, tb Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	var k int
	if ta == NoTrans {
		if a.M != m {
			panic(fmt.Sprintf("hostblas: gemm A rows %d != C rows %d", a.M, m))
		}
		k = a.N
	} else {
		if a.N != m {
			panic(fmt.Sprintf("hostblas: gemm Aᵀ rows %d != C rows %d", a.N, m))
		}
		k = a.M
	}
	if tb == NoTrans {
		if b.M != k || b.N != n {
			panic(fmt.Sprintf("hostblas: gemm B %dx%d incompatible with k=%d n=%d", b.M, b.N, k, n))
		}
	} else if b.N != k || b.M != n {
		panic(fmt.Sprintf("hostblas: gemm Bᵀ %dx%d incompatible with k=%d n=%d", b.M, b.N, k, n))
	}
	scale(beta, c)
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	workers := Parallelism()
	if workers > 1 && int64(m)*int64(n)*int64(k) >= gemmParallelMinFlops {
		if workers > n {
			workers = n
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			j0 := n * w / workers
			j1 := n * (w + 1) / workers
			wg.Add(1)
			// k is passed, not captured: a captured k would be moved
			// to the heap on every call, the sequential ones included.
			go func(k int) {
				defer wg.Done()
				gemmCols(ta, tb, alpha, a, b, c, j0, j1, k)
			}(k)
		}
		wg.Wait()
		return
	}
	gemmCols(ta, tb, alpha, a, b, c, 0, n, k)
}

// gemmCols accumulates alpha·op(A)·op(B) into columns [j0,j1) of C. It is
// the body shared by the sequential and parallel paths: each element's
// arithmetic is independent of the partition, which is what keeps parallel
// results bit-identical.
//
// Every element C(i,j) receives C(i,j) += op(A)(i,l)·(alpha·op(B)(l,j)) for
// l ascending, skipping the terms whose alpha·op(B)(l,j) is zero, as netlib
// does. Column pairs whose op(B) columns hold no such zero go through the
// 4×2 register-blocked kernel; the other columns and the m mod 4 remainder
// rows go through the column-at-a-time loop, which keeps the skip.
func gemmCols(ta, tb Trans, alpha float64, a, b, c matrix.View, j0, j1, k int) {
	m, ldc := c.M, c.LD
	ars, acs := opStrides(ta, a)
	brs, bcs := opStrides(tb, b)
	m4 := m &^ 3
	j := j0
	for ; j+1 < j1; j += 2 {
		if !nonzeroScaled(alpha, b.Data, j*bcs, brs, k) || !nonzeroScaled(alpha, b.Data, (j+1)*bcs, brs, k) {
			gemmCol(alpha, a.Data, ars, acs, b.Data, j*bcs, brs, col(c, j), 0, k)
			gemmCol(alpha, a.Data, ars, acs, b.Data, (j+1)*bcs, brs, col(c, j+1), 0, k)
			continue
		}
		for i := 0; i < m4; i += 4 {
			gemm4x2(k, alpha, a.Data, i*ars, ars, acs, b.Data, j*bcs, brs, bcs, c.Data, j*ldc+i, ldc)
		}
		gemmCol(alpha, a.Data, ars, acs, b.Data, j*bcs, brs, col(c, j), m4, k)
		gemmCol(alpha, a.Data, ars, acs, b.Data, (j+1)*bcs, brs, col(c, j+1), m4, k)
	}
	if j < j1 {
		gemmCol(alpha, a.Data, ars, acs, b.Data, j*bcs, brs, col(c, j), 0, k)
	}
}

// nonzeroScaled reports whether alpha·x[p+l*step] is nonzero for every
// l < k.
func nonzeroScaled(alpha float64, x []float64, p, step, k int) bool {
	for l := 0; l < k; l++ {
		if alpha*x[p] == 0 {
			return false
		}
		p += step
	}
	return true
}

// gemmCol adds op(A)(i,l)·(alpha·op(B)(l,j)) to cj[i] for the rows
// i ≥ i0 of one column j, one l at a time and skipping zero
// alpha·op(B)(l,j); op(B)'s column j starts at b[pb].
func gemmCol(alpha float64, a []float64, ars, acs int, b []float64, pb, brs int, cj []float64, i0, k int) {
	m := len(cj)
	if i0 == m {
		return
	}
	for l := 0; l < k; l++ {
		blj := alpha * b[pb+l*brs]
		if blj == 0 {
			continue
		}
		for i, p := i0, i0*ars+l*acs; i < m; i, p = i+1, p+ars {
			cj[i] += a[p] * blj
		}
	}
}

// gemm4x2 is the register-blocked micro-kernel: the 4×2 block of C at c[pc]
// (leading dimension ldc) stays in registers across the whole ascending l
// loop, reading rows i..i+3 of op(A) from a[pa] and columns j, j+1 of op(B)
// from b[pb] in place. The caller guarantees alpha·op(B)(l,j) ≠ 0 for both
// columns, so no term is skipped.
func gemm4x2(k int, alpha float64, a []float64, pa, ars, acs int, b []float64, pb, brs, bcs int, c []float64, pc, ldc int) {
	c00, c10, c20, c30 := c[pc], c[pc+1], c[pc+2], c[pc+3]
	c01, c11, c21, c31 := c[pc+ldc], c[pc+ldc+1], c[pc+ldc+2], c[pc+ldc+3]
	for l := 0; l < k; l++ {
		b0 := alpha * b[pb]
		b1 := alpha * b[pb+bcs]
		a0 := a[pa]
		a1 := a[pa+ars]
		a2 := a[pa+2*ars]
		a3 := a[pa+3*ars]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		pa += acs
		pb += brs
	}
	c[pc], c[pc+1], c[pc+2], c[pc+3] = c00, c10, c20, c30
	c[pc+ldc], c[pc+ldc+1], c[pc+ldc+2], c[pc+ldc+3] = c01, c11, c21, c31
}

// Symm computes C = alpha·A·B + beta·C (side Left, A symmetric m×m) or
// C = alpha·B·A + beta·C (side Right, A symmetric n×n).
func Symm(side Side, uplo Uplo, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	if b.M != m || b.N != n {
		panic("hostblas: symm B shape mismatch")
	}
	if side == Left && (a.M != m || a.N != m) {
		panic("hostblas: symm left A must be m×m")
	}
	if side == Right && (a.M != n || a.N != n) {
		panic("hostblas: symm right A must be n×n")
	}
	scale(beta, c)
	if alpha == 0 {
		return
	}
	if side == Left {
		for j := 0; j < n; j++ {
			for l := 0; l < m; l++ {
				blj := alpha * b.At(l, j)
				if blj == 0 {
					continue
				}
				for i := 0; i < m; i++ {
					c.Add(i, j, symAt(uplo, a, i, l)*blj)
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		for l := 0; l < n; l++ {
			alj := alpha * symAt(uplo, a, l, j)
			if alj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				c.Add(i, j, b.At(i, l)*alj)
			}
		}
	}
}

// Syrk computes the triangle-updating rank-k operation
// C = alpha·op(A)·op(A)ᵀ + beta·C where only the uplo triangle of the n×n C
// is referenced; op(A) is n×k.
//
// Each stored C(i,j) is one dot product s over l ascending, then
// C(i,j) = alpha·s + beta·C(i,j) (alpha·s when beta = 0, which does not
// read C). Four rows of a column share each load of op(A)(j,l).
func Syrk(uplo Uplo, trans Trans, alpha float64, a matrix.View, beta float64, c matrix.View) {
	n := c.N
	if c.M != n {
		panic("hostblas: syrk C must be square")
	}
	var k int
	if trans == NoTrans {
		if a.M != n {
			panic("hostblas: syrk A rows mismatch")
		}
		k = a.N
	} else {
		if a.N != n {
			panic("hostblas: syrk Aᵀ rows mismatch")
		}
		k = a.M
	}
	if alpha == 0 {
		scaleTri(uplo, beta, c)
		return
	}
	rs, cs := opStrides(trans, a)
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		cj := col(c, j)
		i := lo
		for ; i+3 < hi; i += 4 {
			s0, s1, s2, s3 := dot4(k, a.Data, i*rs, j*rs, rs, cs)
			cj[i] = update(alpha, s0, beta, cj[i])
			cj[i+1] = update(alpha, s1, beta, cj[i+1])
			cj[i+2] = update(alpha, s2, beta, cj[i+2])
			cj[i+3] = update(alpha, s3, beta, cj[i+3])
		}
		for ; i < hi; i++ {
			s := 0.0
			for l, pi, pj := 0, i*rs, j*rs; l < k; l, pi, pj = l+1, pi+cs, pj+cs {
				s += a.Data[pi] * a.Data[pj]
			}
			cj[i] = update(alpha, s, beta, cj[i])
		}
	}
}

// dot4 returns the dot products of the four rows of op(A) starting at
// x[pi] (rows pi, pi+rs, …) with the row starting at x[pj], each summed
// over l ascending from zero.
func dot4(k int, x []float64, pi, pj, rs, cs int) (s0, s1, s2, s3 float64) {
	for l := 0; l < k; l++ {
		y := x[pj]
		s0 += x[pi] * y
		s1 += x[pi+rs] * y
		s2 += x[pi+2*rs] * y
		s3 += x[pi+3*rs] * y
		pi += cs
		pj += cs
	}
	return s0, s1, s2, s3
}

// update returns alpha·s + beta·c, or alpha·s without reading c when
// beta = 0.
func update(alpha, s, beta, c float64) float64 {
	if beta == 0 {
		return alpha * s
	}
	return alpha*s + beta*c
}

// scaleTri sets the uplo triangle of the square c to beta·c; beta = 0
// writes zeros without reading c.
func scaleTri(uplo Uplo, beta float64, c matrix.View) {
	if beta == 1 {
		return
	}
	for j := 0; j < c.N; j++ {
		lo, hi := triRange(uplo, j, c.N)
		cj := col(c, j)[lo:hi]
		if beta == 0 {
			clear(cj)
			continue
		}
		for i := range cj {
			cj[i] = beta * cj[i]
		}
	}
}

// Syr2k computes C = alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C on the
// uplo triangle of the n×n C; op(A), op(B) are n×k.
//
// Each stored C(i,j) is one sum s += op(A)(i,l)·op(B)(j,l) +
// op(B)(i,l)·op(A)(j,l) over l ascending, finished as in Syrk. Four rows of
// a column share each load of op(A)(j,l) and op(B)(j,l).
func Syr2k(uplo Uplo, trans Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	n := c.N
	if c.M != n {
		panic("hostblas: syr2k C must be square")
	}
	var k int
	if trans == NoTrans {
		if a.M != n || b.M != n {
			panic("hostblas: syr2k A/B rows mismatch")
		}
		if a.N != b.N {
			panic("hostblas: syr2k A/B k mismatch")
		}
		k = a.N
	} else {
		if a.N != n || b.N != n {
			panic("hostblas: syr2k Aᵀ/Bᵀ rows mismatch")
		}
		if a.M != b.M {
			panic("hostblas: syr2k A/B k mismatch")
		}
		k = a.M
	}
	if alpha == 0 {
		scaleTri(uplo, beta, c)
		return
	}
	ars, acs := opStrides(trans, a)
	brs, bcs := opStrides(trans, b)
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		cj := col(c, j)
		i := lo
		for ; i+3 < hi; i += 4 {
			s0, s1, s2, s3 := dot4x2(k, a.Data, i*ars, j*ars, ars, acs, b.Data, i*brs, j*brs, brs, bcs)
			cj[i] = update(alpha, s0, beta, cj[i])
			cj[i+1] = update(alpha, s1, beta, cj[i+1])
			cj[i+2] = update(alpha, s2, beta, cj[i+2])
			cj[i+3] = update(alpha, s3, beta, cj[i+3])
		}
		for ; i < hi; i++ {
			s := 0.0
			pai, paj, pbi, pbj := i*ars, j*ars, i*brs, j*brs
			for l := 0; l < k; l++ {
				s += a.Data[pai]*b.Data[pbj] + b.Data[pbi]*a.Data[paj]
				pai, paj, pbi, pbj = pai+acs, paj+acs, pbi+bcs, pbj+bcs
			}
			cj[i] = update(alpha, s, beta, cj[i])
		}
	}
}

// dot4x2 is dot4 for the two-product SYR2K sum: rows start at x[pxi] and
// y[pyi], the shared row j at x[pxj] and y[pyj].
func dot4x2(k int, x []float64, pxi, pxj, xrs, xcs int, y []float64, pyi, pyj, yrs, ycs int) (s0, s1, s2, s3 float64) {
	for l := 0; l < k; l++ {
		xj, yj := x[pxj], y[pyj]
		s0 += x[pxi]*yj + y[pyi]*xj
		s1 += x[pxi+xrs]*yj + y[pyi+yrs]*xj
		s2 += x[pxi+2*xrs]*yj + y[pyi+2*yrs]*xj
		s3 += x[pxi+3*xrs]*yj + y[pyi+3*yrs]*xj
		pxi += xcs
		pxj += xcs
		pyi += ycs
		pyj += ycs
	}
	return s0, s1, s2, s3
}

// triRange reports the [lo,hi) row range of stored elements in column j of
// an n×n triangle.
func triRange(uplo Uplo, j, n int) (lo, hi int) {
	if uplo == Lower {
		return j, n
	}
	return 0, j + 1
}

// Trmm computes B = alpha·op(A)·B (side Left, A triangular m×m) or
// B = alpha·B·op(A) (side Right, A triangular n×n), in place in B.
// alpha = 0 sets B = 0 without reading A or B.
func Trmm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	checkTriangular(side, a, m, n, "trmm")
	if alpha == 0 {
		scale(0, b)
		return
	}
	if side == Left {
		col := make([]float64, m)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				col[i] = b.At(i, j)
			}
			for i := 0; i < m; i++ {
				s := 0.0
				for l := 0; l < m; l++ {
					if v := triOpAt(uplo, ta, diag, a, i, l); v != 0 {
						s += v * col[l]
					}
				}
				b.Set(i, j, alpha*s)
			}
		}
		return
	}
	row := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			row[j] = b.At(i, j)
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < n; l++ {
				if v := triOpAt(uplo, ta, diag, a, l, j); v != 0 {
					s += row[l] * v
				}
			}
			b.Set(i, j, alpha*s)
		}
	}
}

// Trsm solves op(A)·X = alpha·B (side Left) or X·op(A) = alpha·B (side
// Right) for X, overwriting B with X. A is triangular (m×m for Left, n×n
// for Right).
//
// Each unknown is x = (alpha·b − Σ op(A)·x) / diag, the subtractions
// running over the already solved unknowns in ascending index order
// (alpha = 0 sets B = 0 without reading A or B). Where that order is the
// order of a right-looking column sweep, the kernel sweeps contiguous
// columns (axpy form); elsewhere it forms each unknown as one dot product,
// several right-hand sides sharing each load of op(A). A descending sweep
// would reorder the subtractions, so the upper-effective Left and the
// lower-effective Right variants use the dot form.
func Trsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	checkTriangular(side, a, m, n, "trsm")
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scale(0, b)
		return
	}
	rs, cs := opStrides(ta, a)
	t := tri{d: a.Data, rs: rs, cs: cs, unit: diag == Unit}
	lowerEff := (uplo == Lower) == (ta == NoTrans)
	switch {
	case side == Left && uplo == Lower && ta == NoTrans:
		trsmLeftAxpy(t, alpha, b)
	case side == Left:
		trsmLeftDot(t, lowerEff, alpha, b)
	case lowerEff:
		trsmRightDot(t, alpha, b)
	default:
		trsmRightAxpy(t, alpha, b)
	}
}

// tri reads op(A) of a triangular A in place: op(A)(i,l) = d[i*rs+l*cs].
type tri struct {
	d      []float64
	rs, cs int
	unit   bool
}

// diag returns op(A)(i,i), 1 for a unit triangle.
func (t tri) diag(i int) float64 {
	if t.unit {
		return 1
	}
	return t.d[i*(t.rs+t.cs)]
}

// trsmLeftAxpy solves A·X = alpha·B with A lower triangular: after B is
// scaled by alpha, unknown l is finished and column l of A (contiguous below
// the diagonal) is subtracted from the rows below it, l ascending. Four
// right-hand sides share each load of A.
func trsmLeftAxpy(t tri, alpha float64, b matrix.View) {
	m, n := b.M, b.N
	scale(alpha, b)
	j := 0
	for ; j+3 < n; j += 4 {
		b0, b1, b2, b3 := col(b, j), col(b, j+1), col(b, j+2), col(b, j+3)
		for l := 0; l < m; l++ {
			d := t.diag(l)
			x0, x1, x2, x3 := b0[l]/d, b1[l]/d, b2[l]/d, b3[l]/d
			b0[l], b1[l], b2[l], b3[l] = x0, x1, x2, x3
			al := t.d[l*t.cs+l+1 : l*t.cs+m]
			r0, r1, r2, r3 := b0[l+1:m], b1[l+1:m], b2[l+1:m], b3[l+1:m]
			r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
			for i, v := range al {
				r0[i] -= v * x0
				r1[i] -= v * x1
				r2[i] -= v * x2
				r3[i] -= v * x3
			}
		}
	}
	for ; j < n; j++ {
		bj := col(b, j)
		for l := 0; l < m; l++ {
			x := bj[l] / t.diag(l)
			bj[l] = x
			rest := bj[l+1 : m]
			for i, v := range t.d[l*t.cs+l+1 : l*t.cs+m] {
				rest[i] -= v * x
			}
		}
	}
}

// trsmLeftDot solves op(A)·X = alpha·B one unknown at a time, rows ascending
// when op(A) is lower and descending when it is upper, each unknown a dot
// product of a row of op(A) with the solved part of its column. Four
// right-hand sides share each load of op(A).
func trsmLeftDot(t tri, lowerEff bool, alpha float64, b matrix.View) {
	m, n := b.M, b.N
	// rows returns the unknown solved at step s and the range of solved
	// unknowns its row of op(A) multiplies.
	rows := func(s int) (i, lo, hi int) {
		if lowerEff {
			return s, 0, s
		}
		i = m - 1 - s
		return i, i + 1, m
	}
	j := 0
	for ; j+3 < n; j += 4 {
		b0, b1, b2, b3 := col(b, j), col(b, j+1), col(b, j+2), col(b, j+3)
		for s := 0; s < m; s++ {
			i, lo, hi := rows(s)
			s0, s1, s2, s3 := alpha*b0[i], alpha*b1[i], alpha*b2[i], alpha*b3[i]
			for l, p := lo, i*t.rs+lo*t.cs; l < hi; l, p = l+1, p+t.cs {
				v := t.d[p]
				s0 -= v * b0[l]
				s1 -= v * b1[l]
				s2 -= v * b2[l]
				s3 -= v * b3[l]
			}
			d := t.diag(i)
			b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; j < n; j++ {
		bj := col(b, j)
		for s := 0; s < m; s++ {
			i, lo, hi := rows(s)
			x := alpha * bj[i]
			for l, p := lo, i*t.rs+lo*t.cs; l < hi; l, p = l+1, p+t.cs {
				x -= t.d[p] * bj[l]
			}
			bj[i] = x / t.diag(i)
		}
	}
}

// trsmRightDot solves X·op(A) = alpha·B with op(A) lower: in each row of X
// the unknowns are solved for j descending, each a dot product of the solved
// part of the row with column j of op(A). Four rows share each load of
// op(A).
func trsmRightDot(t tri, alpha float64, b matrix.View) {
	m, n, ldb, bd := b.M, b.N, b.LD, b.Data
	i := 0
	for ; i+3 < m; i += 4 {
		for j := n - 1; j >= 0; j-- {
			pj := j*ldb + i
			s0, s1, s2, s3 := alpha*bd[pj], alpha*bd[pj+1], alpha*bd[pj+2], alpha*bd[pj+3]
			for l, pb, pt := j+1, pj+ldb, (j+1)*t.rs+j*t.cs; l < n; l, pb, pt = l+1, pb+ldb, pt+t.rs {
				v := t.d[pt]
				s0 -= bd[pb] * v
				s1 -= bd[pb+1] * v
				s2 -= bd[pb+2] * v
				s3 -= bd[pb+3] * v
			}
			d := t.diag(j)
			bd[pj], bd[pj+1], bd[pj+2], bd[pj+3] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < m; i++ {
		for j := n - 1; j >= 0; j-- {
			pj := j*ldb + i
			x := alpha * bd[pj]
			for l, pb, pt := j+1, pj+ldb, (j+1)*t.rs+j*t.cs; l < n; l, pb, pt = l+1, pb+ldb, pt+t.rs {
				x -= bd[pb] * t.d[pt]
			}
			bd[pj] = x / t.diag(j)
		}
	}
}

// trsmRightAxpy solves X·op(A) = alpha·B with op(A) upper: after B is
// scaled by alpha, column l of X is finished and op(A)(l,j)·X(:,l) is
// subtracted from every later column j, l ascending.
func trsmRightAxpy(t tri, alpha float64, b matrix.View) {
	n := b.N
	scale(alpha, b)
	for l := 0; l < n; l++ {
		bl := col(b, l)
		d := t.diag(l)
		for i := range bl {
			bl[i] /= d
		}
		for j := l + 1; j < n; j++ {
			v := t.d[l*t.rs+j*t.cs]
			bj := col(b, j)[:len(bl)]
			for i, x := range bl {
				bj[i] -= x * v
			}
		}
	}
}

func checkTriangular(side Side, a matrix.View, m, n int, op string) {
	if side == Left {
		if a.M != m || a.N != m {
			panic(fmt.Sprintf("hostblas: %s left A must be %dx%d, got %dx%d", op, m, m, a.M, a.N))
		}
		return
	}
	if a.M != n || a.N != n {
		panic(fmt.Sprintf("hostblas: %s right A must be %dx%d, got %dx%d", op, n, n, a.M, a.N))
	}
}

// Scal scales every element of the view by beta (the degenerate alpha = 0
// paths of the level-3 routines reduce to this).
func Scal(beta float64, v matrix.View) { scale(beta, v) }

// LacpyTri copies the uplo triangle (with diagonal) of src into dst,
// zero-filling the opposite triangle of dst. It is used by tests to compare
// triangle-updating routines.
func LacpyTri(uplo Uplo, src, dst matrix.View) {
	n := src.N
	for j := 0; j < n; j++ {
		for i := 0; i < src.M; i++ {
			in := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
			if in {
				dst.Set(i, j, src.At(i, j))
			} else {
				dst.Set(i, j, 0)
			}
		}
	}
}

// SymmetrizeFrom builds the full symmetric matrix implied by the uplo
// triangle of src into dst.
func SymmetrizeFrom(uplo Uplo, src, dst matrix.View) {
	n := src.N
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			dst.Set(i, j, symAt(uplo, src, i, j))
		}
	}
}
