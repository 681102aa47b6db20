package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/topology"
	"xkblas/internal/trace"
	"xkblas/internal/xkrt"
)

// DAG fingerprint of every tiled entry point: each case runs in timing
// mode on a ragged tile grid (3×2 tiles for C, 3 along K, every last tile
// partial) with a trace recorder attached, and hashes the event stream,
// the final virtual time, the runtime counters and the policy-decision
// counters. The table pins the task graphs the loop nests generate, so a
// refactor of a nest that reorders, drops or re-labels a single task, or
// changes its dimensions or priority, fails here.

const fpM, fpN, fpK, fpNB = 704, 480, 608, 256

type fpCase struct {
	name string
	// run submits the routine and returns the matrix it writes.
	run func(h *Handle) *xkrt.Matrix
}

// fpMat registers a real or complex operand whose op() is rows×cols.
func fpMat(h *Handle, cplx bool, t Trans, rows, cols int) *xkrt.Matrix {
	if t != NoTrans {
		rows, cols = cols, rows
	}
	if cplx {
		return h.RegisterZ(matrix.NewZShape(rows, cols))
	}
	return h.Register(matrix.NewShape(rows, cols))
}

func fpReal(h *Handle, m, n int) *xkrt.Matrix { return fpMat(h, false, NoTrans, m, n) }
func fpCplx(h *Handle, m, n int) *xkrt.Matrix { return fpMat(h, true, NoTrans, m, n) }

func fpSide(s Side) int { return pick(s == Left, fpM, fpN) }

func fingerprintCases() []fpCase {
	var cs []fpCase
	add := func(name string, run func(h *Handle) *xkrt.Matrix) {
		cs = append(cs, fpCase{name, run})
	}
	sides := []Side{Left, Right}
	uplos := []Uplo{Lower, Upper}
	diags := []Diag{NonUnit, Unit}
	realT := []Trans{NoTrans, Transpose}
	cplxT := []Trans{NoTrans, Transpose, ConjTrans}
	herkT := []Trans{NoTrans, ConjTrans}

	for _, alpha := range []float64{1.5, 0} {
		for _, ta := range realT {
			for _, tb := range realT {
				for _, flush := range []bool{false, true} {
					ta, tb, alpha, flush := ta, tb, alpha, flush
					add(fmt.Sprintf("gemm/%v%v/flush=%v/a=%v", ta, tb, flush, alpha), func(h *Handle) *xkrt.Matrix {
						a, b, c := fpMat(h, false, ta, fpM, fpK), fpMat(h, false, tb, fpK, fpN), fpReal(h, fpM, fpN)
						if flush {
							h.GemmFlushAsync(ta, tb, alpha, a, b, 0.5, c)
						} else {
							h.GemmAsync(ta, tb, alpha, a, b, 0.5, c)
						}
						return c
					})
				}
			}
		}
		for _, side := range sides {
			for _, uplo := range uplos {
				side, uplo, alpha := side, uplo, alpha
				add(fmt.Sprintf("symm/%v%v/a=%v", side, uplo, alpha), func(h *Handle) *xkrt.Matrix {
					d := fpSide(side)
					a, b, c := fpReal(h, d, d), fpReal(h, fpM, fpN), fpReal(h, fpM, fpN)
					h.SymmAsync(side, uplo, alpha, a, b, 0.5, c)
					return c
				})
			}
		}
		for _, uplo := range uplos {
			for _, tr := range realT {
				uplo, tr, alpha := uplo, tr, alpha
				add(fmt.Sprintf("syrk/%v%v/a=%v", uplo, tr, alpha), func(h *Handle) *xkrt.Matrix {
					a, c := fpMat(h, false, tr, fpM, fpK), fpReal(h, fpM, fpM)
					h.SyrkAsync(uplo, tr, alpha, a, 0.5, c)
					return c
				})
				add(fmt.Sprintf("syr2k/%v%v/a=%v", uplo, tr, alpha), func(h *Handle) *xkrt.Matrix {
					a, b, c := fpMat(h, false, tr, fpM, fpK), fpMat(h, false, tr, fpM, fpK), fpReal(h, fpM, fpM)
					h.Syr2kAsync(uplo, tr, alpha, a, b, 0.5, c)
					return c
				})
			}
		}
		for _, side := range sides {
			for _, uplo := range uplos {
				for _, ta := range realT {
					for _, diag := range diags {
						side, uplo, ta, diag, alpha := side, uplo, ta, diag, alpha
						tag := fmt.Sprintf("%v%v%v%v/a=%v", side, uplo, ta, diag, alpha)
						add("trmm/"+tag, func(h *Handle) *xkrt.Matrix {
							d := fpSide(side)
							a, b := fpReal(h, d, d), fpReal(h, fpM, fpN)
							h.TrmmAsync(side, uplo, ta, diag, alpha, a, b)
							return b
						})
						add("trsm/"+tag, func(h *Handle) *xkrt.Matrix {
							d := fpSide(side)
							a, b := fpReal(h, d, d), fpReal(h, fpM, fpN)
							h.TrsmAsync(side, uplo, ta, diag, alpha, a, b)
							return b
						})
					}
				}
			}
		}
	}

	// Complex routines at alpha != 0 only: their alpha = 0 graphs are the
	// scale-only early-out, which no table entry pins.
	za := complex(1.5, -0.5)
	for _, ta := range cplxT {
		for _, tb := range cplxT {
			ta, tb := ta, tb
			add(fmt.Sprintf("zgemm/%v%v", ta, tb), func(h *Handle) *xkrt.Matrix {
				a, b, c := fpMat(h, true, ta, fpM, fpK), fpMat(h, true, tb, fpK, fpN), fpCplx(h, fpM, fpN)
				h.ZgemmAsync(ta, tb, za, a, b, 0.5, c)
				return c
			})
		}
	}
	for _, side := range sides {
		for _, uplo := range uplos {
			side, uplo := side, uplo
			add(fmt.Sprintf("zhemm/%v%v", side, uplo), func(h *Handle) *xkrt.Matrix {
				d := fpSide(side)
				a, b, c := fpCplx(h, d, d), fpCplx(h, fpM, fpN), fpCplx(h, fpM, fpN)
				h.ZhemmAsync(side, uplo, za, a, b, 0.5, c)
				return c
			})
		}
	}
	for _, uplo := range uplos {
		for _, tr := range herkT {
			uplo, tr := uplo, tr
			add(fmt.Sprintf("zherk/%v%v", uplo, tr), func(h *Handle) *xkrt.Matrix {
				a, c := fpMat(h, true, tr, fpM, fpK), fpCplx(h, fpM, fpM)
				h.ZherkAsync(uplo, tr, 1.5, a, 0.5, c)
				return c
			})
			add(fmt.Sprintf("zher2k/%v%v", uplo, tr), func(h *Handle) *xkrt.Matrix {
				a, b, c := fpMat(h, true, tr, fpM, fpK), fpMat(h, true, tr, fpM, fpK), fpCplx(h, fpM, fpM)
				h.Zher2kAsync(uplo, tr, za, a, b, 0.5, c)
				return c
			})
		}
	}
	for _, side := range sides {
		for _, uplo := range uplos {
			for _, ta := range cplxT {
				for _, diag := range diags {
					side, uplo, ta, diag := side, uplo, ta, diag
					tag := fmt.Sprintf("%v%v%v%v", side, uplo, ta, diag)
					add("ztrmm/"+tag, func(h *Handle) *xkrt.Matrix {
						d := fpSide(side)
						a, b := fpCplx(h, d, d), fpCplx(h, fpM, fpN)
						h.ZtrmmAsync(side, uplo, ta, diag, za, a, b)
						return b
					})
					add("ztrsm/"+tag, func(h *Handle) *xkrt.Matrix {
						d := fpSide(side)
						a, b := fpCplx(h, d, d), fpCplx(h, fpM, fpN)
						h.ZtrsmAsync(side, uplo, ta, diag, za, a, b)
						return b
					})
				}
			}
		}
	}

	for _, uplo := range uplos {
		uplo := uplo
		add(fmt.Sprintf("potrf/%v", uplo), func(h *Handle) *xkrt.Matrix {
			a := fpReal(h, fpM, fpM)
			h.PotrfAsync(uplo, a)
			return a
		})
	}
	add("getrf", func(h *Handle) *xkrt.Matrix {
		a := fpReal(h, fpM, fpM)
		h.GetrfNoPivAsync(a)
		return a
	})
	return cs
}

// fingerprint runs one case on fresh timing-mode handles and hashes what
// the runtime did: once with the default policy on the 8-GPU DGX-1, which
// exercises the topology-aware transfer choices, and once under DMDAS on
// one GPU running one task at a time, where ready tasks queue in priority
// order.
func fingerprint(c fpCase) string {
	dmdas := policy.XKBlas()
	dmdas.Scheduler = policy.DMDAS{}
	f := fnv.New64a()
	events := 0
	for _, cfg := range []Config{
		{TileSize: fpNB},
		{TileSize: fpNB, Platform: topology.DGX1WithGPUs(1), Options: xkrt.Options{Window: 1, Policy: dmdas}},
	} {
		h := NewHandle(cfg)
		rec := trace.NewRecorder()
		h.RT.Obs = rec
		h.RT.Cache.Observer = rec
		out := c.run(h)
		h.MemoryCoherentAsync(out)
		end := h.Sync()
		for _, e := range rec.Events {
			fmt.Fprintf(f, "%d %d %s %v %v %d\n", e.Dev, e.Kind, e.Label, e.Start, e.End, e.Bytes)
		}
		fmt.Fprintf(f, "end %v\n%+v\n%+v\n", end, h.RT.Stats(), h.RT.Decisions())
		events += len(rec.Events)
	}
	return fmt.Sprintf("%016x/%d", f.Sum64(), events)
}

func TestTileNestFingerprints(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range fingerprintCases() {
		if seen[c.name] {
			t.Fatalf("duplicate case %q", c.name)
		}
		seen[c.name] = true
		got := fingerprint(c)
		if want, ok := nestFingerprints[c.name]; !ok || got != want {
			t.Errorf("%s: fingerprint %s, want %s\n\t%q: %q,", c.name, got, want, c.name, got)
		}
	}
	for name := range nestFingerprints {
		if !seen[name] {
			t.Errorf("table entry %q has no case", name)
		}
	}
}

// nestFingerprints holds the fingerprint of every case, as the loop nests
// generated them before the real and complex routines shared one nest per
// routine. A mismatch prints the line to paste here; change an entry only
// for a deliberate change to a routine's task graph.
var nestFingerprints = map[string]string{
	"gemm/NN/flush=false/a=1.5": "727948a10a34c4da/96",
	"gemm/NN/flush=true/a=1.5":  "fb369a2bfe9dabd6/96",
	"gemm/NT/flush=false/a=1.5": "727948a10a34c4da/96",
	"gemm/NT/flush=true/a=1.5":  "fb369a2bfe9dabd6/96",
	"gemm/TN/flush=false/a=1.5": "727948a10a34c4da/96",
	"gemm/TN/flush=true/a=1.5":  "fb369a2bfe9dabd6/96",
	"gemm/TT/flush=false/a=1.5": "727948a10a34c4da/96",
	"gemm/TT/flush=true/a=1.5":  "fb369a2bfe9dabd6/96",
	"symm/LL/a=1.5":             "5d912f9eb6f974a6/92",
	"symm/LU/a=1.5":             "5d912f9eb6f974a6/92",
	"symm/RL/a=1.5":             "b902c29f39cdc8a9/69",
	"symm/RU/a=1.5":             "b902c29f39cdc8a9/69",
	"syrk/LN/a=1.5":             "1c74cd5a7ff954ce/84",
	"syr2k/LN/a=1.5":            "efcceb659f63484b/126",
	"syrk/LT/a=1.5":             "1c74cd5a7ff954ce/84",
	"syr2k/LT/a=1.5":            "efcceb659f63484b/126",
	"syrk/UN/a=1.5":             "6c21b52487f55077/84",
	"syr2k/UN/a=1.5":            "31a21988e998e439/126",
	"syrk/UT/a=1.5":             "6c21b52487f55077/84",
	"syr2k/UT/a=1.5":            "31a21988e998e439/126",
	"trmm/LLNN/a=1.5":           "36fa06758c026299/60",
	"trsm/LLNN/a=1.5":           "5757c0a90768dca7/60",
	"trmm/LLNU/a=1.5":           "36fa06758c026299/60",
	"trsm/LLNU/a=1.5":           "5757c0a90768dca7/60",
	"trmm/LLTN/a=1.5":           "5fb1a0f75a9c0a2d/60",
	"trsm/LLTN/a=1.5":           "b9d29228a7c64fe6/60",
	"trmm/LLTU/a=1.5":           "5fb1a0f75a9c0a2d/60",
	"trsm/LLTU/a=1.5":           "b9d29228a7c64fe6/60",
	"trmm/LUNN/a=1.5":           "5fb1a0f75a9c0a2d/60",
	"trsm/LUNN/a=1.5":           "b9d29228a7c64fe6/60",
	"trmm/LUNU/a=1.5":           "5fb1a0f75a9c0a2d/60",
	"trsm/LUNU/a=1.5":           "b9d29228a7c64fe6/60",
	"trmm/LUTN/a=1.5":           "36fa06758c026299/60",
	"trsm/LUTN/a=1.5":           "5757c0a90768dca7/60",
	"trmm/LUTU/a=1.5":           "36fa06758c026299/60",
	"trsm/LUTU/a=1.5":           "5757c0a90768dca7/60",
	"trmm/RLNN/a=1.5":           "3940df5b1e704c24/48",
	"trsm/RLNN/a=1.5":           "ff11bbbfbb91b9be/48",
	"trmm/RLNU/a=1.5":           "3940df5b1e704c24/48",
	"trsm/RLNU/a=1.5":           "ff11bbbfbb91b9be/48",
	"trmm/RLTN/a=1.5":           "15b8730a411c22a3/48",
	"trsm/RLTN/a=1.5":           "cdaa25d447722d60/48",
	"trmm/RLTU/a=1.5":           "15b8730a411c22a3/48",
	"trsm/RLTU/a=1.5":           "cdaa25d447722d60/48",
	"trmm/RUNN/a=1.5":           "15b8730a411c22a3/48",
	"trsm/RUNN/a=1.5":           "cdaa25d447722d60/48",
	"trmm/RUNU/a=1.5":           "15b8730a411c22a3/48",
	"trsm/RUNU/a=1.5":           "cdaa25d447722d60/48",
	"trmm/RUTN/a=1.5":           "3940df5b1e704c24/48",
	"trsm/RUTN/a=1.5":           "ff11bbbfbb91b9be/48",
	"trmm/RUTU/a=1.5":           "3940df5b1e704c24/48",
	"trsm/RUTU/a=1.5":           "ff11bbbfbb91b9be/48",
	"gemm/NN/flush=false/a=0":   "484f94d9b908bcac/36",
	"gemm/NN/flush=true/a=0":    "944cb0000db7d9fc/36",
	"gemm/NT/flush=false/a=0":   "484f94d9b908bcac/36",
	"gemm/NT/flush=true/a=0":    "944cb0000db7d9fc/36",
	"gemm/TN/flush=false/a=0":   "484f94d9b908bcac/36",
	"gemm/TN/flush=true/a=0":    "944cb0000db7d9fc/36",
	"gemm/TT/flush=false/a=0":   "484f94d9b908bcac/36",
	"gemm/TT/flush=true/a=0":    "944cb0000db7d9fc/36",
	"symm/LL/a=0":               "484f94d9b908bcac/36",
	"symm/LU/a=0":               "484f94d9b908bcac/36",
	"symm/RL/a=0":               "484f94d9b908bcac/36",
	"symm/RU/a=0":               "484f94d9b908bcac/36",
	"syrk/LN/a=0":               "36763210aa7f70cb/36",
	"syr2k/LN/a=0":              "36763210aa7f70cb/36",
	"syrk/LT/a=0":               "36763210aa7f70cb/36",
	"syr2k/LT/a=0":              "36763210aa7f70cb/36",
	"syrk/UN/a=0":               "34200d18034caf5a/36",
	"syr2k/UN/a=0":              "34200d18034caf5a/36",
	"syrk/UT/a=0":               "34200d18034caf5a/36",
	"syr2k/UT/a=0":              "34200d18034caf5a/36",
	"trmm/LLNN/a=0":             "484f94d9b908bcac/36",
	"trsm/LLNN/a=0":             "484f94d9b908bcac/36",
	"trmm/LLNU/a=0":             "484f94d9b908bcac/36",
	"trsm/LLNU/a=0":             "484f94d9b908bcac/36",
	"trmm/LLTN/a=0":             "484f94d9b908bcac/36",
	"trsm/LLTN/a=0":             "484f94d9b908bcac/36",
	"trmm/LLTU/a=0":             "484f94d9b908bcac/36",
	"trsm/LLTU/a=0":             "484f94d9b908bcac/36",
	"trmm/LUNN/a=0":             "484f94d9b908bcac/36",
	"trsm/LUNN/a=0":             "484f94d9b908bcac/36",
	"trmm/LUNU/a=0":             "484f94d9b908bcac/36",
	"trsm/LUNU/a=0":             "484f94d9b908bcac/36",
	"trmm/LUTN/a=0":             "484f94d9b908bcac/36",
	"trsm/LUTN/a=0":             "484f94d9b908bcac/36",
	"trmm/LUTU/a=0":             "484f94d9b908bcac/36",
	"trsm/LUTU/a=0":             "484f94d9b908bcac/36",
	"trmm/RLNN/a=0":             "484f94d9b908bcac/36",
	"trsm/RLNN/a=0":             "484f94d9b908bcac/36",
	"trmm/RLNU/a=0":             "484f94d9b908bcac/36",
	"trsm/RLNU/a=0":             "484f94d9b908bcac/36",
	"trmm/RLTN/a=0":             "484f94d9b908bcac/36",
	"trsm/RLTN/a=0":             "484f94d9b908bcac/36",
	"trmm/RLTU/a=0":             "484f94d9b908bcac/36",
	"trsm/RLTU/a=0":             "484f94d9b908bcac/36",
	"trmm/RUNN/a=0":             "484f94d9b908bcac/36",
	"trsm/RUNN/a=0":             "484f94d9b908bcac/36",
	"trmm/RUNU/a=0":             "484f94d9b908bcac/36",
	"trsm/RUNU/a=0":             "484f94d9b908bcac/36",
	"trmm/RUTN/a=0":             "484f94d9b908bcac/36",
	"trsm/RUTN/a=0":             "484f94d9b908bcac/36",
	"trmm/RUTU/a=0":             "484f94d9b908bcac/36",
	"trsm/RUTU/a=0":             "484f94d9b908bcac/36",
	"zgemm/NN":                  "d99cbf666c26726d/96",
	"zgemm/NT":                  "d99cbf666c26726d/96",
	"zgemm/NC":                  "d99cbf666c26726d/96",
	"zgemm/TN":                  "d99cbf666c26726d/96",
	"zgemm/TT":                  "d99cbf666c26726d/96",
	"zgemm/TC":                  "d99cbf666c26726d/96",
	"zgemm/CN":                  "d99cbf666c26726d/96",
	"zgemm/CT":                  "d99cbf666c26726d/96",
	"zgemm/CC":                  "d99cbf666c26726d/96",
	"zhemm/LL":                  "a31b362987d14416/92",
	"zhemm/LU":                  "a31b362987d14416/92",
	"zhemm/RL":                  "5256620d17cf1e85/69",
	"zhemm/RU":                  "5256620d17cf1e85/69",
	"zherk/LN":                  "00734e9a2a6685ad/84",
	"zher2k/LN":                 "8a91fe49d5033fe3/125",
	"zherk/LC":                  "00734e9a2a6685ad/84",
	"zher2k/LC":                 "8a91fe49d5033fe3/125",
	"zherk/UN":                  "b25c7cbd872745c6/84",
	"zher2k/UN":                 "1b0f90aebe674e29/125",
	"zherk/UC":                  "b25c7cbd872745c6/84",
	"zher2k/UC":                 "1b0f90aebe674e29/125",
	"ztrmm/LLNN":                "30f41d02acd54d3c/60",
	"ztrsm/LLNN":                "59bbbcbef22a1243/60",
	"ztrmm/LLNU":                "30f41d02acd54d3c/60",
	"ztrsm/LLNU":                "59bbbcbef22a1243/60",
	"ztrmm/LLTN":                "4f9c6e8200b13f2f/60",
	"ztrsm/LLTN":                "b357c920614cd727/60",
	"ztrmm/LLTU":                "4f9c6e8200b13f2f/60",
	"ztrsm/LLTU":                "b357c920614cd727/60",
	"ztrmm/LLCN":                "4f9c6e8200b13f2f/60",
	"ztrsm/LLCN":                "b357c920614cd727/60",
	"ztrmm/LLCU":                "4f9c6e8200b13f2f/60",
	"ztrsm/LLCU":                "b357c920614cd727/60",
	"ztrmm/LUNN":                "4f9c6e8200b13f2f/60",
	"ztrsm/LUNN":                "b357c920614cd727/60",
	"ztrmm/LUNU":                "4f9c6e8200b13f2f/60",
	"ztrsm/LUNU":                "b357c920614cd727/60",
	"ztrmm/LUTN":                "30f41d02acd54d3c/60",
	"ztrsm/LUTN":                "59bbbcbef22a1243/60",
	"ztrmm/LUTU":                "30f41d02acd54d3c/60",
	"ztrsm/LUTU":                "59bbbcbef22a1243/60",
	"ztrmm/LUCN":                "30f41d02acd54d3c/60",
	"ztrsm/LUCN":                "59bbbcbef22a1243/60",
	"ztrmm/LUCU":                "30f41d02acd54d3c/60",
	"ztrsm/LUCU":                "59bbbcbef22a1243/60",
	"ztrmm/RLNN":                "f9133cbb2f8e068a/48",
	"ztrsm/RLNN":                "e97712389252ae8e/48",
	"ztrmm/RLNU":                "f9133cbb2f8e068a/48",
	"ztrsm/RLNU":                "e97712389252ae8e/48",
	"ztrmm/RLTN":                "f72c44a4bd043542/48",
	"ztrsm/RLTN":                "97bdc15250f58a0a/48",
	"ztrmm/RLTU":                "f72c44a4bd043542/48",
	"ztrsm/RLTU":                "97bdc15250f58a0a/48",
	"ztrmm/RLCN":                "f72c44a4bd043542/48",
	"ztrsm/RLCN":                "97bdc15250f58a0a/48",
	"ztrmm/RLCU":                "f72c44a4bd043542/48",
	"ztrsm/RLCU":                "97bdc15250f58a0a/48",
	"ztrmm/RUNN":                "f72c44a4bd043542/48",
	"ztrsm/RUNN":                "97bdc15250f58a0a/48",
	"ztrmm/RUNU":                "f72c44a4bd043542/48",
	"ztrsm/RUNU":                "97bdc15250f58a0a/48",
	"ztrmm/RUTN":                "f9133cbb2f8e068a/48",
	"ztrsm/RUTN":                "e97712389252ae8e/48",
	"ztrmm/RUTU":                "f9133cbb2f8e068a/48",
	"ztrsm/RUTU":                "e97712389252ae8e/48",
	"ztrmm/RUCN":                "f9133cbb2f8e068a/48",
	"ztrsm/RUCN":                "e97712389252ae8e/48",
	"ztrmm/RUCU":                "f9133cbb2f8e068a/48",
	"ztrsm/RUCU":                "e97712389252ae8e/48",
	"potrf/L":                   "1bba69d97679333f/44",
	"potrf/U":                   "b000f6dc08b4184a/44",
	"getrf":                     "ad30e1f5b56937ee/64",
}
