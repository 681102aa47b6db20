package baseline

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/topology"
)

// Result fingerprint of every library driver: each case runs one
// measurement with kernel noise and metrics on, twice through one handle
// pool (the second run recycles the first one's context) and once with a
// trace recorder, and hashes the bits of Elapsed and GFlops, the cache
// statistics, the policy decisions, the metrics snapshot, the recorder's
// event count and decisions, the error text and the number of handles the
// pool kept. The table pins what the drivers report, so a refactor of the
// shared run protocol (cancellation, handle release, the data-on-device
// distribution, the result assembly) that changes one reported bit fails
// here.

type resultCase struct {
	name string
	run  func(req Request) Result
}

func resultCases() []resultCase {
	var cs []resultCase
	add := func(name string, run func(req Request) Result) {
		cs = append(cs, resultCase{name, run})
	}
	for _, lib := range testRoster() {
		for _, r := range blasops.All() {
			if !lib.Supports(r) {
				continue
			}
			for _, sc := range []Scenario{DataOnHost, DataOnDevice} {
				add(fmt.Sprintf("%s/%v/%v", lib.Name(), r, sc), func(req Request) Result {
					req.Routine, req.Scenario = r, sc
					return lib.Run(req)
				})
			}
		}
		// Four GPUs: the data-on-device grid is (4, 1), not (4, 2).
		add(fmt.Sprintf("%s/%v/%v/4gpu", lib.Name(), blasops.Gemm, DataOnDevice), func(req Request) Result {
			req.Routine, req.Scenario, req.Platform = blasops.Gemm, DataOnDevice, topology.DGX1WithGPUs(4)
			return lib.Run(req)
		})
		add(lib.Name()+"/canceled", func(req Request) Result {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req.Routine, req.Ctx = blasops.Gemm, ctx
			return lib.Run(req)
		})
		if c, ok := lib.(Composer); ok {
			add(lib.Name()+"/composition", func(req Request) Result { return c.RunComposition(req) })
		}
		if f, ok := lib.(FusedRunner); ok {
			for _, r := range blasops.All() {
				if lib.Supports(r) {
					add(fmt.Sprintf("%s/fused3/%v", lib.Name(), r), func(req Request) Result {
						req.Routine = r
						return f.RunFused(req, 3)
					})
				}
			}
		}
		if b, ok := lib.(BatchRunner); ok {
			for _, mode := range []DispatchMode{DispatchAuto, DispatchDeviceOnly, DispatchHostOnly} {
				for _, shape := range [][2]int{{12, 192}, {4, 1536}} {
					add(fmt.Sprintf("%s/batched/%v/count=%d/n=%d", lib.Name(), mode, shape[0], shape[1]), func(req Request) Result {
						return b.RunBatched(req, blasops.UniformBatch(blasops.Gemm, shape[0], shape[1], shape[1], shape[1]), mode)
					})
				}
			}
		}
	}
	return cs
}

// resultFingerprint runs one case twice on a handle pool and once traced,
// and hashes the three results.
func resultFingerprint(c resultCase) string {
	f := fnv.New64a()
	pool := NewHandlePool()
	for _, traced := range []bool{false, false, true} {
		req := Request{Routine: blasops.Gemm, N: 4096, NB: 1024, NoiseAmp: 0.02, NoiseSeed: 7, Metrics: true, Trace: traced}
		if !traced {
			req.Handles = pool
		}
		res := c.run(req)
		fmt.Fprintf(f, "%x %x\n%+v\n%+v\n%v\n", math.Float64bits(float64(res.Elapsed)),
			math.Float64bits(res.GFlops), res.Cache, res.Decisions, res.Err)
		for _, s := range res.Metrics {
			fmt.Fprintf(f, "%s %d %d %x\n", s.Name, s.Kind, s.Int, math.Float64bits(s.Float))
		}
		if res.Rec != nil {
			fmt.Fprintf(f, "rec %d %+v\n", len(res.Rec.Events), res.Rec.Decisions)
		}
	}
	fmt.Fprintf(f, "pooled %d\n", len(pool.free))
	return fmt.Sprintf("%016x", f.Sum64())
}

func TestDriverResultFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every library driver twice")
	}
	seen := map[string]bool{}
	for _, c := range resultCases() {
		if seen[c.name] {
			t.Fatalf("duplicate case %q", c.name)
		}
		seen[c.name] = true
		got := resultFingerprint(c)
		if want, ok := driverFingerprints[c.name]; !ok || got != want {
			t.Errorf("%s: fingerprint %s, want %s\n\t%q: %q,", c.name, got, want, c.name, got)
		}
	}
	for name := range driverFingerprints {
		if !seen[name] {
			t.Errorf("table entry %q has no case", name)
		}
	}
}

// driverFingerprints holds the fingerprint of every case, as the drivers
// reported them while each one still carried its own copy of the run
// protocol. A mismatch prints the line to paste here; change an entry only
// for a deliberate change to what a driver measures or reports.
var driverFingerprints = map[string]string{
	"XKBlas/GEMM/data-on-host":                                         "0e704cf5e7d1a653",
	"XKBlas/GEMM/data-on-device":                                       "db58c4dfe25ef756",
	"XKBlas/SYMM/data-on-host":                                         "b4a4caa6ecda6687",
	"XKBlas/SYMM/data-on-device":                                       "98befbfd8f2f8b7d",
	"XKBlas/SYR2K/data-on-host":                                        "c80d6761a22ac738",
	"XKBlas/SYR2K/data-on-device":                                      "6b69a780089b6f2c",
	"XKBlas/SYRK/data-on-host":                                         "3b541c3a9a79a619",
	"XKBlas/SYRK/data-on-device":                                       "f0233951ac6af2a9",
	"XKBlas/TRMM/data-on-host":                                         "1053897b8c49716f",
	"XKBlas/TRMM/data-on-device":                                       "b9664734fe43df79",
	"XKBlas/TRSM/data-on-host":                                         "0354bd1ff40ae896",
	"XKBlas/TRSM/data-on-device":                                       "e5cd17ab280d84f1",
	"XKBlas/GEMM/data-on-device/4gpu":                                  "5dfa8cc9db7611a4",
	"XKBlas/canceled":                                                  "a20f8710d7c9232f",
	"XKBlas/composition":                                               "30eb817649856494",
	"XKBlas/fused3/GEMM":                                               "1d2866dc5e63ac9a",
	"XKBlas/fused3/SYMM":                                               "3f59282baec14fff",
	"XKBlas/fused3/SYR2K":                                              "1da1bce650a11869",
	"XKBlas/fused3/SYRK":                                               "fb893ac25d167556",
	"XKBlas/fused3/TRMM":                                               "6d423bbcd839d21e",
	"XKBlas/fused3/TRSM":                                               "9f64746432bf5b6a",
	"XKBlas/batched/crossover/count=12/n=192":                          "8e1e21a3240e47f1",
	"XKBlas/batched/crossover/count=4/n=1536":                          "0b3277ce05250452",
	"XKBlas/batched/device-only/count=12/n=192":                        "15eb4cfb9059119d",
	"XKBlas/batched/device-only/count=4/n=1536":                        "0b3277ce05250452",
	"XKBlas/batched/host-only/count=12/n=192":                          "8e1e21a3240e47f1",
	"XKBlas/batched/host-only/count=4/n=1536":                          "b9480f1338ba08ce",
	"XKBlas, no heuristic/GEMM/data-on-host":                           "9ab121f199a78dd8",
	"XKBlas, no heuristic/GEMM/data-on-device":                         "5cb7b4c1167cdac8",
	"XKBlas, no heuristic/SYMM/data-on-host":                           "f3029f882e08f33e",
	"XKBlas, no heuristic/SYMM/data-on-device":                         "51c31cd6821b75a3",
	"XKBlas, no heuristic/SYR2K/data-on-host":                          "738895e8dc89b0ba",
	"XKBlas, no heuristic/SYR2K/data-on-device":                        "ca96009ea62b5c30",
	"XKBlas, no heuristic/SYRK/data-on-host":                           "0bc6c682168a5998",
	"XKBlas, no heuristic/SYRK/data-on-device":                         "8b015def9da8360a",
	"XKBlas, no heuristic/TRMM/data-on-host":                           "e212c76e56d1bb84",
	"XKBlas, no heuristic/TRMM/data-on-device":                         "eaa4e851bd599816",
	"XKBlas, no heuristic/TRSM/data-on-host":                           "2a2733c4cb409864",
	"XKBlas, no heuristic/TRSM/data-on-device":                         "ce7c63fca79fb946",
	"XKBlas, no heuristic/GEMM/data-on-device/4gpu":                    "0d23547be2411ffc",
	"XKBlas, no heuristic/canceled":                                    "a20f8710d7c9232f",
	"XKBlas, no heuristic/composition":                                 "58db0b6a134fd096",
	"XKBlas, no heuristic/fused3/GEMM":                                 "aec36c48dc338d89",
	"XKBlas, no heuristic/fused3/SYMM":                                 "f4ef7a9e799c8509",
	"XKBlas, no heuristic/fused3/SYR2K":                                "4f3242e0fa8bc255",
	"XKBlas, no heuristic/fused3/SYRK":                                 "57878161e9e56933",
	"XKBlas, no heuristic/fused3/TRMM":                                 "194d0bb0e239d9d8",
	"XKBlas, no heuristic/fused3/TRSM":                                 "e1e22f8367967c54",
	"XKBlas, no heuristic/batched/crossover/count=12/n=192":            "8e1e21a3240e47f1",
	"XKBlas, no heuristic/batched/crossover/count=4/n=1536":            "98622607253485d0",
	"XKBlas, no heuristic/batched/device-only/count=12/n=192":          "e33f2178ec05c5ee",
	"XKBlas, no heuristic/batched/device-only/count=4/n=1536":          "98622607253485d0",
	"XKBlas, no heuristic/batched/host-only/count=12/n=192":            "8e1e21a3240e47f1",
	"XKBlas, no heuristic/batched/host-only/count=4/n=1536":            "b9480f1338ba08ce",
	"XKBlas, no heuristic, no topo/GEMM/data-on-host":                  "9ab121f199a78dd8",
	"XKBlas, no heuristic, no topo/GEMM/data-on-device":                "cc69924897039538",
	"XKBlas, no heuristic, no topo/SYMM/data-on-host":                  "f3029f882e08f33e",
	"XKBlas, no heuristic, no topo/SYMM/data-on-device":                "5a8a541f42e103fe",
	"XKBlas, no heuristic, no topo/SYR2K/data-on-host":                 "738895e8dc89b0ba",
	"XKBlas, no heuristic, no topo/SYR2K/data-on-device":               "6ef0763ff00bae2e",
	"XKBlas, no heuristic, no topo/SYRK/data-on-host":                  "d734af1b5efaab13",
	"XKBlas, no heuristic, no topo/SYRK/data-on-device":                "8b015def9da8360a",
	"XKBlas, no heuristic, no topo/TRMM/data-on-host":                  "a05f9daabb7d1c72",
	"XKBlas, no heuristic, no topo/TRMM/data-on-device":                "def849dbf99a9f9a",
	"XKBlas, no heuristic, no topo/TRSM/data-on-host":                  "2a2733c4cb409864",
	"XKBlas, no heuristic, no topo/TRSM/data-on-device":                "ce7c63fca79fb946",
	"XKBlas, no heuristic, no topo/GEMM/data-on-device/4gpu":           "780c7673a926f798",
	"XKBlas, no heuristic, no topo/canceled":                           "a20f8710d7c9232f",
	"XKBlas, no heuristic, no topo/composition":                        "dced5d54b129a8fa",
	"XKBlas, no heuristic, no topo/fused3/GEMM":                        "1857c102af257a04",
	"XKBlas, no heuristic, no topo/fused3/SYMM":                        "03f2c443f9eca9a5",
	"XKBlas, no heuristic, no topo/fused3/SYR2K":                       "0c300f04cdd79c5c",
	"XKBlas, no heuristic, no topo/fused3/SYRK":                        "57878161e9e56933",
	"XKBlas, no heuristic, no topo/fused3/TRMM":                        "5f31f0404acd0ad2",
	"XKBlas, no heuristic, no topo/fused3/TRSM":                        "6986a73d618d5d7b",
	"XKBlas, no heuristic, no topo/batched/crossover/count=12/n=192":   "8e1e21a3240e47f1",
	"XKBlas, no heuristic, no topo/batched/crossover/count=4/n=1536":   "98622607253485d0",
	"XKBlas, no heuristic, no topo/batched/device-only/count=12/n=192": "e33f2178ec05c5ee",
	"XKBlas, no heuristic, no topo/batched/device-only/count=4/n=1536": "98622607253485d0",
	"XKBlas, no heuristic, no topo/batched/host-only/count=12/n=192":   "8e1e21a3240e47f1",
	"XKBlas, no heuristic, no topo/batched/host-only/count=4/n=1536":   "b9480f1338ba08ce",
	"cuBLAS-XT/GEMM/data-on-host":                                      "31cb5814cade3b69",
	"cuBLAS-XT/GEMM/data-on-device":                                    "dc718fd023c8ac1b",
	"cuBLAS-XT/SYMM/data-on-host":                                      "b75da34c73574ded",
	"cuBLAS-XT/SYMM/data-on-device":                                    "c258dea046e0f1b5",
	"cuBLAS-XT/SYR2K/data-on-host":                                     "622ca493cfb32fb1",
	"cuBLAS-XT/SYR2K/data-on-device":                                   "1d2dd8070ecdcb34",
	"cuBLAS-XT/SYRK/data-on-host":                                      "a0c1744587c32416",
	"cuBLAS-XT/SYRK/data-on-device":                                    "7810b707dee3a07a",
	"cuBLAS-XT/TRMM/data-on-host":                                      "7197cb971c05bfde",
	"cuBLAS-XT/TRMM/data-on-device":                                    "7b25a9c62235c34b",
	"cuBLAS-XT/TRSM/data-on-host":                                      "0a14738c0b7596f2",
	"cuBLAS-XT/TRSM/data-on-device":                                    "fe74bcdfb04e81ad",
	"cuBLAS-XT/GEMM/data-on-device/4gpu":                               "c352002671002ca3",
	"cuBLAS-XT/canceled":                                               "a20f8710d7c9232f",
	"cuBLAS-XT/composition":                                            "8b10635b56563de8",
	"cuBLAS-XT/fused3/GEMM":                                            "15430271520dc6e6",
	"cuBLAS-XT/fused3/SYMM":                                            "edd6e43ea2dbd38d",
	"cuBLAS-XT/fused3/SYR2K":                                           "f81b2240110c9580",
	"cuBLAS-XT/fused3/SYRK":                                            "7c7bd9c05dbab14a",
	"cuBLAS-XT/fused3/TRMM":                                            "bda8b2f279da7395",
	"cuBLAS-XT/fused3/TRSM":                                            "1e3b16fdbb3ce98a",
	"cuBLAS-XT/batched/crossover/count=12/n=192":                       "8e1e21a3240e47f1",
	"cuBLAS-XT/batched/crossover/count=4/n=1536":                       "4ae6316796f9a298",
	"cuBLAS-XT/batched/device-only/count=12/n=192":                     "f443093b215b51f5",
	"cuBLAS-XT/batched/device-only/count=4/n=1536":                     "4ae6316796f9a298",
	"cuBLAS-XT/batched/host-only/count=12/n=192":                       "8e1e21a3240e47f1",
	"cuBLAS-XT/batched/host-only/count=4/n=1536":                       "b9480f1338ba08ce",
	"Chameleon Tile/GEMM/data-on-host":                                 "4c41733e747b8902",
	"Chameleon Tile/GEMM/data-on-device":                               "f4916878155610c4",
	"Chameleon Tile/SYMM/data-on-host":                                 "9b83cecb8f4e2ef1",
	"Chameleon Tile/SYMM/data-on-device":                               "b8eda39c7b4e3e84",
	"Chameleon Tile/SYR2K/data-on-host":                                "2f5d6869bae0d742",
	"Chameleon Tile/SYR2K/data-on-device":                              "b4514899c5f2560a",
	"Chameleon Tile/SYRK/data-on-host":                                 "052bf6ddf3e89df7",
	"Chameleon Tile/SYRK/data-on-device":                               "ddc134a7aaf54b44",
	"Chameleon Tile/TRMM/data-on-host":                                 "7db2b0764cb4f05a",
	"Chameleon Tile/TRMM/data-on-device":                               "8f667cbbf2e85d13",
	"Chameleon Tile/TRSM/data-on-host":                                 "987d821224d19c2a",
	"Chameleon Tile/TRSM/data-on-device":                               "bb205769d715a703",
	"Chameleon Tile/GEMM/data-on-device/4gpu":                          "fa6bd9e593cd2caf",
	"Chameleon Tile/canceled":                                          "a20f8710d7c9232f",
	"Chameleon Tile/composition":                                       "6381fe42999d70db",
	"Chameleon Tile/fused3/GEMM":                                       "0be6ff2bc598cca1",
	"Chameleon Tile/fused3/SYMM":                                       "362f21f2fc462cac",
	"Chameleon Tile/fused3/SYR2K":                                      "2d882529756e8ca5",
	"Chameleon Tile/fused3/SYRK":                                       "93cc3bdee8e478cf",
	"Chameleon Tile/fused3/TRMM":                                       "c6f16e4805f8b69d",
	"Chameleon Tile/fused3/TRSM":                                       "47aa0e7aadbc821f",
	"Chameleon Tile/batched/crossover/count=12/n=192":                  "8e1e21a3240e47f1",
	"Chameleon Tile/batched/crossover/count=4/n=1536":                  "8f9b7f908ed9798a",
	"Chameleon Tile/batched/device-only/count=12/n=192":                "7781439cec7ecbec",
	"Chameleon Tile/batched/device-only/count=4/n=1536":                "8f9b7f908ed9798a",
	"Chameleon Tile/batched/host-only/count=12/n=192":                  "8e1e21a3240e47f1",
	"Chameleon Tile/batched/host-only/count=4/n=1536":                  "b9480f1338ba08ce",
	"Chameleon LAPACK/GEMM/data-on-host":                               "096c9bc7311d4440",
	"Chameleon LAPACK/GEMM/data-on-device":                             "b72f80c2c2d49aa7",
	"Chameleon LAPACK/SYMM/data-on-host":                               "764656040396d1a9",
	"Chameleon LAPACK/SYMM/data-on-device":                             "fc57e83a8dbae694",
	"Chameleon LAPACK/SYR2K/data-on-host":                              "7b2b29184db3a248",
	"Chameleon LAPACK/SYR2K/data-on-device":                            "a19bcecb3b041414",
	"Chameleon LAPACK/SYRK/data-on-host":                               "a53d8d6c5cfe65aa",
	"Chameleon LAPACK/SYRK/data-on-device":                             "307c51925bb03602",
	"Chameleon LAPACK/TRMM/data-on-host":                               "b61d04fc5a57c83f",
	"Chameleon LAPACK/TRMM/data-on-device":                             "a6c85fb3cff11521",
	"Chameleon LAPACK/TRSM/data-on-host":                               "88ec4b40f8626c64",
	"Chameleon LAPACK/TRSM/data-on-device":                             "3524675b617a6785",
	"Chameleon LAPACK/GEMM/data-on-device/4gpu":                        "0d6272517841d054",
	"Chameleon LAPACK/canceled":                                        "a20f8710d7c9232f",
	"Chameleon LAPACK/composition":                                     "6381fe42999d70db",
	"Chameleon LAPACK/fused3/GEMM":                                     "0be6ff2bc598cca1",
	"Chameleon LAPACK/fused3/SYMM":                                     "362f21f2fc462cac",
	"Chameleon LAPACK/fused3/SYR2K":                                    "2d882529756e8ca5",
	"Chameleon LAPACK/fused3/SYRK":                                     "93cc3bdee8e478cf",
	"Chameleon LAPACK/fused3/TRMM":                                     "c6f16e4805f8b69d",
	"Chameleon LAPACK/fused3/TRSM":                                     "47aa0e7aadbc821f",
	"Chameleon LAPACK/batched/crossover/count=12/n=192":                "8e1e21a3240e47f1",
	"Chameleon LAPACK/batched/crossover/count=4/n=1536":                "8f9b7f908ed9798a",
	"Chameleon LAPACK/batched/device-only/count=12/n=192":              "7781439cec7ecbec",
	"Chameleon LAPACK/batched/device-only/count=4/n=1536":              "8f9b7f908ed9798a",
	"Chameleon LAPACK/batched/host-only/count=12/n=192":                "8e1e21a3240e47f1",
	"Chameleon LAPACK/batched/host-only/count=4/n=1536":                "b9480f1338ba08ce",
	"BLASX/GEMM/data-on-host":                                          "243d035604ff553c",
	"BLASX/GEMM/data-on-device":                                        "7843ff4b1bb5be92",
	"BLASX/GEMM/data-on-device/4gpu":                                   "f3bb843af40b7875",
	"BLASX/canceled":                                                   "a20f8710d7c9232f",
	"BLASX/composition":                                                "00847a7536b4471a",
	"BLASX/fused3/GEMM":                                                "b0beb6c73433d465",
	"BLASX/batched/crossover/count=12/n=192":                           "8e1e21a3240e47f1",
	"BLASX/batched/crossover/count=4/n=1536":                           "2607382630e2160f",
	"BLASX/batched/device-only/count=12/n=192":                         "e6540e7347ea79b4",
	"BLASX/batched/device-only/count=4/n=1536":                         "2607382630e2160f",
	"BLASX/batched/host-only/count=12/n=192":                           "8e1e21a3240e47f1",
	"BLASX/batched/host-only/count=4/n=1536":                           "b9480f1338ba08ce",
	"DPLASMA/GEMM/data-on-host":                                        "f44788a8e553947a",
	"DPLASMA/GEMM/data-on-device":                                      "ef24da5a06ae16c5",
	"DPLASMA/GEMM/data-on-device/4gpu":                                 "2571a6e750dbfde0",
	"DPLASMA/canceled":                                                 "a20f8710d7c9232f",
	"DPLASMA/composition":                                              "756c9fd8bb82e6bd",
	"DPLASMA/fused3/GEMM":                                              "0629b4c815e1fe16",
	"DPLASMA/batched/crossover/count=12/n=192":                         "8e1e21a3240e47f1",
	"DPLASMA/batched/crossover/count=4/n=1536":                         "737ca08043ab59fb",
	"DPLASMA/batched/device-only/count=12/n=192":                       "078d03f0799d1823",
	"DPLASMA/batched/device-only/count=4/n=1536":                       "737ca08043ab59fb",
	"DPLASMA/batched/host-only/count=12/n=192":                         "8e1e21a3240e47f1",
	"DPLASMA/batched/host-only/count=4/n=1536":                         "b9480f1338ba08ce",
	"Slate/GEMM/data-on-host":                                          "89cd545e1a94422d",
	"Slate/GEMM/data-on-device":                                        "beb71e8d72a5bd4c",
	"Slate/SYMM/data-on-host":                                          "b75da34c73574ded",
	"Slate/SYMM/data-on-device":                                        "d3f5274e320204d0",
	"Slate/SYR2K/data-on-host":                                         "d262729f32c0563d",
	"Slate/SYR2K/data-on-device":                                       "7f7c6758967169c0",
	"Slate/SYRK/data-on-host":                                          "a0c1744587c32416",
	"Slate/SYRK/data-on-device":                                        "253bfd214ccade58",
	"Slate/TRMM/data-on-host":                                          "9d0a35aec80a8e6e",
	"Slate/TRMM/data-on-device":                                        "140aac5e2cd4de31",
	"Slate/TRSM/data-on-host":                                          "0a14738c0b7596f2",
	"Slate/TRSM/data-on-device":                                        "eb8e2ab1fd0b5605",
	"Slate/GEMM/data-on-device/4gpu":                                   "e74ce3c86b4f2f9f",
	"Slate/canceled":                                                   "a20f8710d7c9232f",
	"Slate/composition":                                                "8b10635b56563de8",
	"cuBLAS-MG/GEMM/data-on-host":                                      "67cd50ed1e72863d",
	"cuBLAS-MG/GEMM/data-on-device":                                    "c09c8c4e9b311a69",
	"cuBLAS-MG/GEMM/data-on-device/4gpu":                               "5cf4a7a57b45f8f1",
	"cuBLAS-MG/canceled":                                               "a20f8710d7c9232f",
}
