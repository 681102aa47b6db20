package hostblas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xkblas/internal/matrix"
)

// The production kernels must reproduce the reference loops of ref_test.go
// bit for bit, for every flag combination, shape, leading dimension, scalar
// and operand value, non-finite ones included.

// kernelDims are the shapes swept for m, n and k: empty, below, at and
// around the 4-row/2-column register blocks, and two tile-sized ones.
var kernelDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 67}

// kernelScalars are the swept alpha and beta values; 0 and 1 select the
// netlib shortcuts.
var kernelScalars = []float64{0, 1, -1, 0.75}

// specials are the operand values whose IEEE behaviour differs from an
// ordinary number: signed zeros, NaN, infinities and subnormals.
var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
}

// sameBits reports whether x and y are the same float64, any NaN matching
// any other NaN.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// operand is an m×n sub-view of a larger parent matrix, so its leading
// dimension exceeds m and the parent has margins on every side; comparing
// whole parents also catches a write outside the view.
type operand struct {
	parent     matrix.View
	i0, j0     int
	rows, cols int
}

// newOperand returns an m×n operand whose parent has 1 to 3 extra rows and
// one extra column. Elements are uniform in [-1,1); with specials set,
// about one in eight is replaced by a special value.
func newOperand(rng *rand.Rand, m, n int, special bool) operand {
	pad := 1 + rng.Intn(3)
	o := operand{parent: matrix.New(m+pad, n+1), i0: rng.Intn(pad + 1), j0: rng.Intn(2), rows: m, cols: n}
	for i := range o.parent.Data {
		o.parent.Data[i] = 2*rng.Float64() - 1
		if special && rng.Intn(8) == 0 {
			o.parent.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return o
}

func (o operand) view() matrix.View { return o.parent.Sub(o.i0, o.j0, o.rows, o.cols) }

func (o operand) clone() operand {
	o.parent = o.parent.Clone()
	return o
}

// dominantDiag sets the diagonal of a square operand to ±[1,2), keeping a
// triangular solve well away from overflow unless specials are injected.
func (o operand) dominantDiag(rng *rand.Rand) {
	v := o.view()
	for i := 0; i < v.M; i++ {
		d := 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			d = -d
		}
		v.Set(i, i, d)
	}
}

// sameOperand fails t unless got and want hold the same bits everywhere in
// their parents.
func sameOperand(t *testing.T, what string, got, want operand) bool {
	t.Helper()
	for p, w := range want.parent.Data {
		if g := got.parent.Data[p]; !sameBits(g, w) {
			ld := want.parent.LD
			t.Errorf("%s: parent element (%d,%d) (view origin (%d,%d)) = %v (%#016x), reference %v (%#016x)",
				what, p%ld, p/ld, want.i0, want.j0, g, math.Float64bits(g), w, math.Float64bits(w))
			return false
		}
	}
	return true
}

// checkGemm runs Gemm and refGemm on the same inputs and compares the
// results bit for bit.
func checkGemm(t *testing.T, rng *rand.Rand, ta, tb Trans, m, n, k int, alpha, beta float64, specA, specB, specC bool) bool {
	t.Helper()
	ar, ac := m, k
	if ta == Transpose {
		ar, ac = k, m
	}
	br, bc := k, n
	if tb == Transpose {
		br, bc = n, k
	}
	a, b := newOperand(rng, ar, ac, specA), newOperand(rng, br, bc, specB)
	c := newOperand(rng, m, n, specC)
	want := c.clone()
	refGemm(ta, tb, alpha, a.view(), b.view(), beta, want.view())
	Gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view())
	return sameOperand(t, fmt.Sprintf("gemm(%c,%c) m=%d n=%d k=%d alpha=%v beta=%v", ta, tb, m, n, k, alpha, beta), c, want)
}

func checkSyrk(t *testing.T, rng *rand.Rand, uplo Uplo, trans Trans, n, k int, alpha, beta float64, specA, specC bool) bool {
	t.Helper()
	ar, ac := n, k
	if trans == Transpose {
		ar, ac = k, n
	}
	a, c := newOperand(rng, ar, ac, specA), newOperand(rng, n, n, specC)
	want := c.clone()
	refSyrk(uplo, trans, alpha, a.view(), beta, want.view())
	Syrk(uplo, trans, alpha, a.view(), beta, c.view())
	return sameOperand(t, fmt.Sprintf("syrk(%c,%c) n=%d k=%d alpha=%v beta=%v", uplo, trans, n, k, alpha, beta), c, want)
}

func checkSyr2k(t *testing.T, rng *rand.Rand, uplo Uplo, trans Trans, n, k int, alpha, beta float64, specA, specC bool) bool {
	t.Helper()
	ar, ac := n, k
	if trans == Transpose {
		ar, ac = k, n
	}
	a, b := newOperand(rng, ar, ac, specA), newOperand(rng, ar, ac, specA)
	c := newOperand(rng, n, n, specC)
	want := c.clone()
	refSyr2k(uplo, trans, alpha, a.view(), b.view(), beta, want.view())
	Syr2k(uplo, trans, alpha, a.view(), b.view(), beta, c.view())
	return sameOperand(t, fmt.Sprintf("syr2k(%c,%c) n=%d k=%d alpha=%v beta=%v", uplo, trans, n, k, alpha, beta), c, want)
}

func checkTrsm(t *testing.T, rng *rand.Rand, side Side, uplo Uplo, ta Trans, diag Diag, m, n int, alpha float64, specA, specB bool) bool {
	t.Helper()
	dim := m
	if side == Right {
		dim = n
	}
	a := newOperand(rng, dim, dim, specA)
	if !specA {
		a.dominantDiag(rng)
	}
	b := newOperand(rng, m, n, specB)
	want := b.clone()
	refTrsm(side, uplo, ta, diag, alpha, a.view(), want.view())
	Trsm(side, uplo, ta, diag, alpha, a.view(), b.view())
	return sameOperand(t, fmt.Sprintf("trsm(%c,%c,%c,%c) m=%d n=%d alpha=%v", side, uplo, ta, diag, m, n, alpha), b, want)
}

// TestKernelsBitIdenticalToReference sweeps every flag combination of
// Gemm, Syrk, Syr2k and Trsm over kernelDims. Each call draws its scalars
// from kernelScalars and decides per operand whether to inject specials,
// so clean operands exercise the register-blocked paths and special ones
// the zero skip and non-finite propagation.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(14))
	scalar := func() float64 { return kernelScalars[rng.Intn(len(kernelScalars))] }
	coin := func() bool { return rng.Intn(2) == 0 }
	trans := []Trans{NoTrans, Transpose}
	uplos := []Uplo{Lower, Upper}
	for _, ta := range trans {
		for _, tb := range trans {
			for _, m := range kernelDims {
				for _, n := range kernelDims {
					for _, k := range kernelDims {
						if !checkGemm(t, rng, ta, tb, m, n, k, scalar(), scalar(), coin(), coin(), coin()) {
							return
						}
					}
				}
			}
		}
	}
	for _, uplo := range uplos {
		for _, tr := range trans {
			for _, n := range kernelDims {
				for _, k := range kernelDims {
					for _, alpha := range kernelScalars {
						for _, beta := range kernelScalars {
							if !checkSyrk(t, rng, uplo, tr, n, k, alpha, beta, coin(), coin()) ||
								!checkSyr2k(t, rng, uplo, tr, n, k, alpha, beta, coin(), coin()) {
								return
							}
						}
					}
				}
			}
		}
	}
	for _, side := range []Side{Left, Right} {
		for _, uplo := range uplos {
			for _, ta := range trans {
				for _, diag := range []Diag{NonUnit, Unit} {
					for _, m := range kernelDims {
						for _, n := range kernelDims {
							for _, alpha := range kernelScalars {
								if !checkTrsm(t, rng, side, uplo, ta, diag, m, n, alpha, coin(), coin()) {
									return
								}
							}
						}
					}
				}
			}
		}
	}
}

// fuzzScalar maps a fuzzed byte onto kernelScalars and the specials, so the
// fuzzer reaches the shortcut values and non-finite scalars directly.
func fuzzScalar(x uint8) float64 {
	all := append(append([]float64(nil), kernelScalars...), specials...)
	return all[int(x)%len(all)]
}

// FuzzGemmMatchesReference checks Gemm against refGemm for fuzzed shapes
// (up to 70), transpose flags, leading-dimension padding, scalars and
// operand values; flags bit 0/1 select the transposes and bits 2–4 inject
// specials into A, B and C.
func FuzzGemmMatchesReference(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(7), uint8(0), uint8(3), uint8(2), int64(1))
	f.Add(uint8(67), uint8(13), uint8(64), uint8(0b11111), uint8(2), uint8(0), int64(2))
	f.Fuzz(func(t *testing.T, m, n, k, flags, alpha, beta uint8, seed int64) {
		defer SetParallelism(0)
		SetParallelism(1)
		ta, tb := NoTrans, NoTrans
		if flags&1 != 0 {
			ta = Transpose
		}
		if flags&2 != 0 {
			tb = Transpose
		}
		rng := rand.New(rand.NewSource(seed))
		checkGemm(t, rng, ta, tb, int(m%71), int(n%71), int(k%71), fuzzScalar(alpha), fuzzScalar(beta),
			flags&4 != 0, flags&8 != 0, flags&16 != 0)
	})
}

// FuzzTrsmMatchesReference checks Trsm against refTrsm for fuzzed shapes
// (up to 70), all side/uplo/trans/diag flags (bits 0–3), specials in A and
// B (bits 4–5), leading-dimension padding and alpha.
func FuzzTrsmMatchesReference(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(0), uint8(3), int64(1))
	f.Add(uint8(67), uint8(9), uint8(0b111111), uint8(1), int64(2))
	f.Fuzz(func(t *testing.T, m, n, flags, alpha uint8, seed int64) {
		side, uplo, ta, diag := Left, Lower, NoTrans, NonUnit
		if flags&1 != 0 {
			side = Right
		}
		if flags&2 != 0 {
			uplo = Upper
		}
		if flags&4 != 0 {
			ta = Transpose
		}
		if flags&8 != 0 {
			diag = Unit
		}
		rng := rand.New(rand.NewSource(seed))
		checkTrsm(t, rng, side, uplo, ta, diag, int(m%71), int(n%71), fuzzScalar(alpha), flags&16 != 0, flags&32 != 0)
	})
}

// TestKernelsAllocationFree guards the no-packing contract: the sequential
// kernels allocate nothing per call at tile scale.
func TestKernelsAllocationFree(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(3))
	const n = 64
	a, b, c := gemmCase(rng, n, n, n)
	tri := matrix.New(n, n)
	tri.FillIdentityPlus(n, rng)
	calls := map[string]func(){
		"syrk":  func() { Syrk(Lower, NoTrans, 0.5, a, 0.25, c) },
		"syr2k": func() { Syr2k(Upper, Transpose, 0.5, a, b, 0.25, c) },
	}
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			calls[fmt.Sprintf("gemm(%c,%c)", ta, tb)] = func() { Gemm(ta, tb, 0.5, a, b, 0.25, c) }
		}
	}
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				calls[fmt.Sprintf("trsm(%c,%c,%c)", side, uplo, ta)] = func() { Trsm(side, uplo, ta, NonUnit, 1, tri, b) }
			}
		}
	}
	for name, call := range calls {
		if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// benchKernel times one kernel call on nb=256 operands with the sequential
// kernel and reports its rate in GF/s. The call's output operands, the
// second and third, are restored from pristine copies before every call
// (O(nb²) against the kernel's O(nb³)), so repeated in-place solves cannot
// drift into subnormals.
func benchKernel(b *testing.B, flops float64, call func(a, bb, c matrix.View)) {
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(1))
	const nb = 256
	a, bb0, c0 := gemmCase(rng, nb, nb, nb)
	a.FillIdentityPlus(nb, rng) // a well-conditioned triangle for Trsm
	bb, c := bb0.Clone(), c0.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.CopyFrom(bb0)
		c.CopyFrom(c0)
		call(a, bb, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
}

const nb3 = 256 * 256 * 256

func benchGemm(b *testing.B, ta, tb Trans) {
	benchKernel(b, 2*nb3, func(a, bb, c matrix.View) { Gemm(ta, tb, 0.75, a, bb, -0.5, c) })
}

func BenchmarkGemmNN(b *testing.B) { benchGemm(b, NoTrans, NoTrans) }
func BenchmarkGemmNT(b *testing.B) { benchGemm(b, NoTrans, Transpose) }
func BenchmarkGemmTN(b *testing.B) { benchGemm(b, Transpose, NoTrans) }
func BenchmarkGemmTT(b *testing.B) { benchGemm(b, Transpose, Transpose) }

func BenchmarkTrsm(b *testing.B) {
	benchKernel(b, nb3, func(a, bb, _ matrix.View) { Trsm(Left, Lower, NoTrans, NonUnit, 1, a, bb) })
}

func BenchmarkSyr2k(b *testing.B) {
	benchKernel(b, 2*nb3, func(a, bb, c matrix.View) { Syr2k(Lower, NoTrans, 0.75, a, bb, -0.5, c) })
}
