package hostblas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xkblas/internal/blasops"
	"xkblas/internal/matrix"
)

const tol = 1e-9

// naiveMul computes C = A·B densely.
func naiveMul(a, b matrix.View) matrix.View {
	c := matrix.New(a.M, b.N)
	for j := 0; j < b.N; j++ {
		for i := 0; i < a.M; i++ {
			s := 0.0
			for l := 0; l < a.N; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func densifyOp(t Trans, a matrix.View) matrix.View {
	if t == NoTrans {
		return a.Clone()
	}
	c := matrix.New(a.N, a.M)
	for j := 0; j < a.M; j++ {
		for i := 0; i < a.N; i++ {
			c.Set(i, j, a.At(j, i))
		}
	}
	return c
}

// densifyTri materializes a stored triangle into a dense matrix, honouring
// the diag convention.
func densifyTri(uplo Uplo, diag Diag, a matrix.View) matrix.View {
	n := a.N
	c := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			c.Set(i, j, triOpAt(uplo, NoTrans, diag, a, i, j))
		}
	}
	return c
}

func axpyScale(alpha float64, x matrix.View, beta float64, y matrix.View) matrix.View {
	c := matrix.New(y.M, y.N)
	for j := 0; j < y.N; j++ {
		for i := 0; i < y.M; i++ {
			c.Set(i, j, alpha*x.At(i, j)+beta*y.At(i, j))
		}
	}
	return c
}

func randView(rng *rand.Rand, m, n int) matrix.View {
	// Exercise non-trivial leading dimensions.
	ld := m + rng.Intn(3)
	v := matrix.FromSlice(make([]float64, ld*n+1), m, n, max(ld, 1))
	v.FillRandom(rng)
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGemmAllTransCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			m, n, k := 7, 5, 9
			var a, b matrix.View
			if ta == NoTrans {
				a = randView(rng, m, k)
			} else {
				a = randView(rng, k, m)
			}
			if tb == NoTrans {
				b = randView(rng, k, n)
			} else {
				b = randView(rng, n, k)
			}
			c := randView(rng, m, n)
			alpha, beta := 1.3, -0.7
			want := axpyScale(alpha, naiveMul(densifyOp(ta, a), densifyOp(tb, b)), beta, c)
			Gemm(ta, tb, alpha, a, b, beta, c)
			if d := matrix.MaxAbsDiff(c, want); d > tol {
				t.Errorf("gemm(%c,%c): max diff %g", ta, tb, d)
			}
		}
	}
}

func TestGemmBetaZeroIgnoresC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randView(rng, 4, 4), randView(rng, 4, 4)
	c := matrix.New(4, 4)
	for i := range c.Data {
		c.Data[i] = 1e300 // must be overwritten, not scaled
	}
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	want := naiveMul(a, b)
	if d := matrix.MaxAbsDiff(c, want); d > tol {
		t.Fatalf("beta=0 should ignore prior C, diff %g", d)
	}
}

// TestSyrkSyr2kBetaZeroIgnoresC is TestGemmBetaZeroIgnoresC for the
// triangle-updating routines: with beta = 0, netlib does not read C, so a
// NaN in C's stored triangle must be overwritten, not propagated.
func TestSyrkSyr2kBetaZeroIgnoresC(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, uplo := range []Uplo{Lower, Upper} {
		a, b := randView(rng, 5, 3), randView(rng, 5, 3)
		oa := densifyOp(NoTrans, a)
		ob := densifyOp(NoTrans, b)
		syrk := naiveMul(oa, densifyOp(Transpose, oa))
		syr2k := axpyScale(1, naiveMul(oa, densifyOp(Transpose, ob)), 1, naiveMul(ob, densifyOp(Transpose, oa)))
		for name, run := range map[string]func(c matrix.View) matrix.View{
			"syrk":  func(c matrix.View) matrix.View { Syrk(uplo, NoTrans, 1, a, 0, c); return syrk },
			"syr2k": func(c matrix.View) matrix.View { Syr2k(uplo, NoTrans, 1, a, b, 0, c); return syr2k },
		} {
			c := matrix.New(5, 5)
			for i := range c.Data {
				c.Data[i] = math.NaN() // must be overwritten, not scaled
			}
			want := run(c)
			for j := 0; j < 5; j++ {
				lo, hi := triRange(uplo, j, 5)
				for i := lo; i < hi; i++ {
					if d := math.Abs(c.At(i, j) - want.At(i, j)); !(d <= tol) {
						t.Fatalf("%s(%c) beta=0: C[%d,%d] = %v, want %v", name, uplo, i, j, c.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestTrmmTrsmAlphaZero: with alpha = 0, netlib sets B = 0 without reading
// A or B, so NaNs in either must not reach the result.
func TestTrmmTrsmAlphaZero(t *testing.T) {
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for name, run := range map[string]func(a, b matrix.View){
					"trmm": func(a, b matrix.View) { Trmm(side, uplo, ta, NonUnit, 0, a, b) },
					"trsm": func(a, b matrix.View) { Trsm(side, uplo, ta, NonUnit, 0, a, b) },
				} {
					a, b := matrix.New(4, 4), matrix.New(4, 4)
					for i := range a.Data {
						a.Data[i], b.Data[i] = math.NaN(), math.Inf(1)
					}
					run(a, b)
					for i, x := range b.Data {
						if math.Float64bits(x) != 0 {
							t.Fatalf("%s(%c,%c,%c) alpha=0: B element %d = %v, want +0", name, side, uplo, ta, i, x)
						}
					}
				}
			}
		}
	}
}

func TestGemmAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randView(rng, 3, 3), randView(rng, 3, 3)
	c := randView(rng, 3, 3)
	want := axpyScale(0, c, 2, c)
	Gemm(NoTrans, NoTrans, 0, a, b, 2, c)
	if d := matrix.MaxAbsDiff(c, want); d > tol {
		t.Fatalf("alpha=0 diff %g", d)
	}
}

func TestSymmBothSidesBothUplos(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			m, n := 6, 4
			dim := m
			if side == Right {
				dim = n
			}
			a := randView(rng, dim, dim)
			b := randView(rng, m, n)
			c := randView(rng, m, n)
			alpha, beta := 0.9, 1.4
			sym := matrix.New(dim, dim)
			SymmetrizeFrom(uplo, a, sym)
			var prod matrix.View
			if side == Left {
				prod = naiveMul(sym, b)
			} else {
				prod = naiveMul(b, sym)
			}
			want := axpyScale(alpha, prod, beta, c)
			Symm(side, uplo, alpha, a, b, beta, c)
			if d := matrix.MaxAbsDiff(c, want); d > tol {
				t.Errorf("symm(%c,%c): diff %g", side, uplo, d)
			}
		}
	}
}

func TestSyrkTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			n, k := 6, 4
			var a matrix.View
			if trans == NoTrans {
				a = randView(rng, n, k)
			} else {
				a = randView(rng, k, n)
			}
			c := randView(rng, n, n)
			orig := c.Clone()
			alpha, beta := 1.1, 0.5
			oa := densifyOp(trans, a)
			full := axpyScale(alpha, naiveMul(oa, densifyOp(Transpose, oa)), beta, orig)
			Syrk(uplo, trans, alpha, a, beta, c)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					in := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
					if in {
						if d := c.At(i, j) - full.At(i, j); d > tol || d < -tol {
							t.Errorf("syrk(%c,%c) (%d,%d) diff %g", uplo, trans, i, j, d)
						}
					} else if c.At(i, j) != orig.At(i, j) {
						t.Errorf("syrk(%c,%c) touched (%d,%d) outside triangle", uplo, trans, i, j)
					}
				}
			}
		}
	}
}

func TestSyr2k(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			n, k := 5, 7
			var a, b matrix.View
			if trans == NoTrans {
				a, b = randView(rng, n, k), randView(rng, n, k)
			} else {
				a, b = randView(rng, k, n), randView(rng, k, n)
			}
			c := randView(rng, n, n)
			orig := c.Clone()
			alpha, beta := -0.8, 1.2
			oa, ob := densifyOp(trans, a), densifyOp(trans, b)
			abt := naiveMul(oa, densifyOp(Transpose, ob))
			bat := naiveMul(ob, densifyOp(Transpose, oa))
			full := axpyScale(alpha, axpyScale(1, abt, 1, bat), beta, orig)
			Syr2k(uplo, trans, alpha, a, b, beta, c)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					in := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
					if in {
						if d := c.At(i, j) - full.At(i, j); d > tol || d < -tol {
							t.Errorf("syr2k(%c,%c) (%d,%d) diff %g", uplo, trans, i, j, d)
						}
					} else if c.At(i, j) != orig.At(i, j) {
						t.Errorf("syr2k(%c,%c) touched outside triangle", uplo, trans)
					}
				}
			}
		}
	}
}

func TestTrmmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 5, 6
					dim := m
					if side == Right {
						dim = n
					}
					a := randView(rng, dim, dim)
					b := randView(rng, m, n)
					alpha := 1.5
					tri := densifyOp(ta, densifyTri(uplo, diag, a))
					var want matrix.View
					if side == Left {
						want = axpyScale(alpha, naiveMul(tri, b), 0, b)
					} else {
						want = axpyScale(alpha, naiveMul(b, tri), 0, b)
					}
					Trmm(side, uplo, ta, diag, alpha, a, b)
					if d := matrix.MaxAbsDiff(b, want); d > tol {
						t.Errorf("trmm(%c,%c,%c,%c): diff %g", side, uplo, ta, diag, d)
					}
				}
			}
		}
	}
}

func TestTrsmAllVariantsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 6, 5
					dim := m
					if side == Right {
						dim = n
					}
					a := matrix.New(dim, dim)
					a.FillIdentityPlus(8, rng) // well-conditioned
					b := randView(rng, m, n)
					orig := b.Clone()
					alpha := 2.0
					Trsm(side, uplo, ta, diag, alpha, a, b)
					// Verify op(A)·X = alpha·B (or X·op(A) = alpha·B).
					x := b.Clone()
					Trmm(side, uplo, ta, diag, 1, a, x)
					want := axpyScale(alpha, orig, 0, orig)
					if d := matrix.MaxAbsDiff(x, want); d > 1e-8 {
						t.Errorf("trsm(%c,%c,%c,%c): residual %g", side, uplo, ta, diag, d)
					}
				}
			}
		}
	}
}

// Property: GEMM is bilinear in alpha.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed int64, alphaRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := float64(alphaRaw) / 16
		m, n, k := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a, b := randView(rng, m, k), randView(rng, k, n)
		c1 := matrix.New(m, n)
		c2 := matrix.New(m, n)
		Gemm(NoTrans, NoTrans, alpha, a, b, 0, c1)
		Gemm(NoTrans, NoTrans, 1, a, b, 0, c2)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d := c1.At(i, j) - alpha*c2.At(i, j)
				if d > 1e-9 || d < -1e-9 {
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

// Property: SYRK result is consistent between Lower and Upper storage (they
// describe the same symmetric matrix).
func TestSyrkLowerUpperConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := rng.Intn(8)+1, rng.Intn(8)+1
		a := randView(rng, n, k)
		cl := matrix.New(n, n)
		cu := matrix.New(n, n)
		Syrk(Lower, NoTrans, 1, a, 0, cl)
		Syrk(Upper, NoTrans, 1, a, 0, cu)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				d := cl.At(i, j) - cu.At(j, i)
				if d > 1e-9 || d < -1e-9 {
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

// Property: TRSM then TRMM with the same triangle round-trips to alpha·B for
// random shapes and flags.
func TestTrsmTrmmInverseProperty(t *testing.T) {
	f := func(seed int64, flags uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		side := Left
		if flags&1 != 0 {
			side = Right
		}
		uplo := Lower
		if flags&2 != 0 {
			uplo = Upper
		}
		ta := NoTrans
		if flags&4 != 0 {
			ta = Transpose
		}
		diag := NonUnit
		if flags&8 != 0 {
			diag = Unit
		}
		m, n := rng.Intn(7)+1, rng.Intn(7)+1
		dim := m
		if side == Right {
			dim = n
		}
		a := matrix.New(dim, dim)
		a.FillIdentityPlus(10, rng)
		b := randView(rng, m, n)
		orig := b.Clone()
		Trsm(side, uplo, ta, diag, 3, a, b)
		Trmm(side, uplo, ta, diag, 1, a, b)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d := b.At(i, j) - 3*orig.At(i, j)
				if d > 1e-7 || d < -1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLacpyTri(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := randView(rng, 4, 4)
	dst := matrix.New(4, 4)
	LacpyTri(Lower, src, dst)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			if i >= j {
				if dst.At(i, j) != src.At(i, j) {
					t.Fatal("triangle not copied")
				}
			} else if dst.At(i, j) != 0 {
				t.Fatal("strict upper not zeroed")
			}
		}
	}
}

// TestConjTransMatchesTranspose: on real data ConjTrans is Transpose, so
// every kernel taking a transpose flag must give bit-identical output for
// 'C' and 'T', in every flag position and combination.
func TestConjTransMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 5
	a, b := randView(rng, n, n), randView(rng, n, n)
	// cases maps a kernel and its other flags to a call taking the
	// transpose flags under test; out is the operand it writes.
	type call func(x, y Trans, out matrix.View)
	cases := map[string]call{
		"gemm": func(x, y Trans, out matrix.View) { Gemm(x, y, 1.5, a, b, 0.5, out) },
	}
	for _, uplo := range []Uplo{Lower, Upper} {
		uplo := uplo
		cases["syrk/"+string(uplo)] = func(x, _ Trans, out matrix.View) { Syrk(uplo, x, 1.5, a, 0.5, out) }
		cases["syr2k/"+string(uplo)] = func(x, _ Trans, out matrix.View) { Syr2k(uplo, x, 1.5, a, b, 0.5, out) }
		for _, side := range []Side{Left, Right} {
			for _, diag := range []Diag{NonUnit, Unit} {
				side, diag := side, diag
				tag := string(side) + string(uplo) + string(diag)
				cases["trmm/"+tag] = func(x, _ Trans, out matrix.View) { Trmm(side, uplo, x, diag, 1.5, a, out) }
				cases["trsm/"+tag] = func(x, _ Trans, out matrix.View) {
					d := a.Clone()
					for i := 0; i < n; i++ {
						d.Set(i, i, 2+d.At(i, i))
					}
					Trsm(side, uplo, x, diag, 1.5, d, out)
				}
			}
		}
	}
	c := randView(rng, n, n)
	flags := [][2]Trans{{Transpose, Transpose}, {Transpose, NoTrans}, {NoTrans, Transpose}}
	for name, run := range cases {
		for _, f := range flags {
			withC := func(x Trans) Trans {
				if x == Transpose {
					return blasops.ConjTrans
				}
				return x
			}
			want, got := c.Clone(), c.Clone()
			run(f[0], f[1], want)
			run(withC(f[0]), withC(f[1]), got)
			for i := range want.Data {
				if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Errorf("%s(%c,%c): element %d is %v with 'C', %v with 'T'", name, f[0], f[1], i, got.Data[i], want.Data[i])
					break
				}
			}
		}
	}
}
