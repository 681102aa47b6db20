package zblas

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"xkblas/internal/matrix"
)

const tol = 1e-10

func randZ(rng *rand.Rand, m, n int) matrix.ZMat {
	z := matrix.NewZ(m, n)
	z.FillRandom(rng)
	return z
}

// naiveZ computes C = A·B on dense complex matrices.
func naiveZ(a, b matrix.ZMat) matrix.ZMat {
	c := matrix.NewZ(a.M, b.N)
	for j := 0; j < b.N; j++ {
		for i := 0; i < a.M; i++ {
			var s complex128
			for l := 0; l < a.N; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func densifyZ(t Trans, a matrix.ZMat) matrix.ZMat {
	if t == NoTrans {
		return a.Clone()
	}
	c := matrix.NewZ(a.N, a.M)
	for j := 0; j < a.M; j++ {
		for i := 0; i < a.N; i++ {
			x := a.At(j, i)
			if t == ConjTrans {
				x = complex(real(x), -imag(x))
			}
			c.Set(i, j, x)
		}
	}
	return c
}

func zAxpby(alpha complex128, x matrix.ZMat, beta complex128, y matrix.ZMat) matrix.ZMat {
	c := matrix.NewZ(y.M, y.N)
	for j := 0; j < y.N; j++ {
		for i := 0; i < y.M; i++ {
			c.Set(i, j, alpha*x.At(i, j)+beta*y.At(i, j))
		}
	}
	return c
}

func TestInterleavedRepresentation(t *testing.T) {
	z := matrix.NewZ(3, 2)
	z.Set(1, 1, complex(3, -4))
	if z.V.At(2, 1) != 3 || z.V.At(3, 1) != -4 {
		t.Fatal("interleaved layout broken")
	}
	if z.At(1, 1) != complex(3, -4) {
		t.Fatal("roundtrip broken")
	}
	s := z.Sub(1, 0, 2, 2)
	if s.At(0, 1) != complex(3, -4) {
		t.Fatal("complex sub-view broken")
	}
}

func TestZgemmAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n, k := 5, 4, 6
	for _, ta := range []Trans{NoTrans, Transpose, ConjTrans} {
		for _, tb := range []Trans{NoTrans, Transpose, ConjTrans} {
			var a, b matrix.ZMat
			if ta == NoTrans {
				a = randZ(rng, m, k)
			} else {
				a = randZ(rng, k, m)
			}
			if tb == NoTrans {
				b = randZ(rng, k, n)
			} else {
				b = randZ(rng, n, k)
			}
			c := randZ(rng, m, n)
			alpha, beta := complex(1.2, -0.3), complex(-0.4, 0.9)
			want := zAxpby(alpha, naiveZ(densifyZ(ta, a), densifyZ(tb, b)), beta, c)
			Gemm(ta, tb, alpha, a, b, beta, c)
			if d := matrix.MaxAbsDiffZ(c, want); d > tol {
				t.Errorf("zgemm(%c,%c): diff %g", ta, tb, d)
			}
		}
	}
}

func TestHemm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n := 6, 5
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			dim := m
			if side == Right {
				dim = n
			}
			a := randZ(rng, dim, dim)
			herm := matrix.NewZ(dim, dim)
			HermitianizeFrom(uplo, a, herm)
			b := randZ(rng, m, n)
			c := randZ(rng, m, n)
			alpha, beta := complex(0.7, 0.2), complex(1.1, -0.5)
			var prod matrix.ZMat
			if side == Left {
				prod = naiveZ(herm, b)
			} else {
				prod = naiveZ(b, herm)
			}
			want := zAxpby(alpha, prod, beta, c)
			Hemm(side, uplo, alpha, a, b, beta, c)
			if d := matrix.MaxAbsDiffZ(c, want); d > tol {
				t.Errorf("hemm(%c,%c): diff %g", side, uplo, d)
			}
		}
	}
}

func TestHerkProducesHermitianTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 6, 4
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, ConjTrans} {
			var a matrix.ZMat
			if trans == NoTrans {
				a = randZ(rng, n, k)
			} else {
				a = randZ(rng, k, n)
			}
			c := randZ(rng, n, n)
			// Hermitian prior C (real diagonal) so beta-scaling stays valid.
			for i := 0; i < n; i++ {
				c.Set(i, i, complex(real(c.At(i, i)), 0))
			}
			orig := c.Clone()
			alpha, beta := 0.9, 0.4
			oa := densifyZ(trans, a)
			full := zAxpby(complex(alpha, 0), naiveZ(oa, densifyZ(ConjTrans, oa)), complex(beta, 0), orig)
			Herk(uplo, trans, alpha, a, beta, c)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					in := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
					if in {
						if d := cmplx.Abs(c.At(i, j) - full.At(i, j)); d > tol {
							t.Errorf("herk(%c,%c) (%d,%d): diff %g", uplo, trans, i, j, d)
						}
					} else if c.At(i, j) != orig.At(i, j) {
						t.Errorf("herk(%c,%c) touched outside triangle", uplo, trans)
					}
				}
			}
			for i := 0; i < n; i++ {
				in := true
				if in && imag(c.At(i, i)) != 0 {
					t.Errorf("herk diagonal (%d,%d) has imaginary part %g", i, i, imag(c.At(i, i)))
				}
			}
		}
	}
}

func TestHer2k(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, k := 5, 6
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, ConjTrans} {
			var a, b matrix.ZMat
			if trans == NoTrans {
				a, b = randZ(rng, n, k), randZ(rng, n, k)
			} else {
				a, b = randZ(rng, k, n), randZ(rng, k, n)
			}
			c := randZ(rng, n, n)
			for i := 0; i < n; i++ {
				c.Set(i, i, complex(real(c.At(i, i)), 0))
			}
			orig := c.Clone()
			alpha := complex(0.8, -0.6)
			beta := 1.3
			oa, ob := densifyZ(trans, a), densifyZ(trans, b)
			abt := naiveZ(oa, densifyZ(ConjTrans, ob))
			bat := naiveZ(ob, densifyZ(ConjTrans, oa))
			full := zAxpby(alpha, abt, 1, zAxpby(complex(real(alpha), -imag(alpha)), bat, complex(beta, 0), orig))
			Her2k(uplo, trans, alpha, a, b, beta, c)
			for j := 0; j < n; j++ {
				lo, hi := j, n
				if uplo == Upper {
					lo, hi = 0, j+1
				}
				for i := lo; i < hi; i++ {
					if d := cmplx.Abs(c.At(i, j) - full.At(i, j)); d > tol {
						t.Errorf("her2k(%c,%c) (%d,%d): diff %g", uplo, trans, i, j, d)
					}
				}
			}
		}
	}
}

// Property: HERK output restricted to the triangle agrees between Lower and
// Upper storage through conjugation (the matrix is Hermitian).
func TestHerkHermitianSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := rng.Intn(6)+1, rng.Intn(6)+1
		a := randZ(rng, n, k)
		cl := matrix.NewZ(n, n)
		cu := matrix.NewZ(n, n)
		Herk(Lower, NoTrans, 1, a, 0, cl)
		Herk(Upper, NoTrans, 1, a, 0, cu)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				d := cl.At(i, j) - complex(real(cu.At(j, i)), -imag(cu.At(j, i)))
				if math.Hypot(real(d), imag(d)) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFillHermitianPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := matrix.NewZ(6, 6)
	z.FillHermitianPlus(10, rng)
	for j := 0; j < 6; j++ {
		for i := 0; i < 6; i++ {
			d := z.At(i, j) - complex(real(z.At(j, i)), -imag(z.At(j, i)))
			if cmplx.Abs(d) > 0 {
				t.Fatalf("not Hermitian at (%d,%d)", i, j)
			}
		}
		if real(z.At(j, j)) < 9 || imag(z.At(j, j)) != 0 {
			t.Fatalf("diagonal (%d,%d) = %v", j, j, z.At(j, j))
		}
	}
}

// TestHerkHer2kNetlibShortcuts: with alpha = 0, HERK and HER2K read
// neither A nor B: they scale C's stored triangle by beta componentwise and
// make its diagonal real, and beta = 1 leaves C as it is. With beta = 0
// they write C's triangle without reading it.
func TestHerkHer2kNetlibShortcuts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, k = 5, 3
	calls := map[string]func(uplo Uplo, alpha complex128, a, b matrix.ZMat, beta float64, c matrix.ZMat){
		"herk": func(uplo Uplo, alpha complex128, a, _ matrix.ZMat, beta float64, c matrix.ZMat) {
			Herk(uplo, NoTrans, real(alpha), a, beta, c)
		},
		"her2k": func(uplo Uplo, alpha complex128, a, b matrix.ZMat, beta float64, c matrix.ZMat) {
			Her2k(uplo, NoTrans, alpha, a, b, beta, c)
		},
	}
	for name, call := range calls {
		for _, uplo := range []Uplo{Lower, Upper} {
			a, b := randZ(rng, n, k), randZ(rng, n, k)
			a.Set(1, 1, cmplx.NaN())
			b.Set(1, 0, cmplx.NaN())
			for _, beta := range []float64{0.5, 1, 0} {
				c := randZ(rng, n, n)
				orig := c.Clone()
				call(uplo, 0, a, b, beta, c)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						x := orig.At(i, j)
						want := x
						lo, hi := triRange(uplo, j, n)
						switch {
						case i < lo || i >= hi || beta == 1:
						case i == j:
							want = complex(beta*real(x), 0)
						default:
							want = complex(beta*real(x), beta*imag(x))
						}
						if got := c.At(i, j); got != want {
							t.Errorf("%s(%c) alpha=0 beta=%v: C[%d,%d] = %v, want %v", name, uplo, beta, i, j, got, want)
						}
					}
				}
			}

			// beta = 0 with alpha != 0: C's triangle is output only.
			a, b = randZ(rng, n, k), randZ(rng, n, k)
			want := matrix.NewZ(n, n)
			call(uplo, complex(0.5, 0.25), a, b, 1, want)
			c := matrix.NewZ(n, n)
			for i := range c.V.Data {
				c.V.Data[i] = math.NaN()
			}
			call(uplo, complex(0.5, 0.25), a, b, 0, c)
			for j := 0; j < n; j++ {
				lo, hi := triRange(uplo, j, n)
				for i := lo; i < hi; i++ {
					if d := cmplx.Abs(c.At(i, j) - want.At(i, j)); !(d <= tol) {
						t.Errorf("%s(%c) beta=0: C[%d,%d] = %v, want %v", name, uplo, i, j, c.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}
