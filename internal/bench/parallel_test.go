package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

// parityConfig is a quick sweep that still exercises multiple routines,
// libraries, tile candidates, noisy repetitions and an infeasible point.
func parityConfig() Config {
	return Config{
		Env: Env{Metrics: true},
		Libs: []baseline.Library{
			baseline.XKBlas(),
			baseline.CuBLASXT(),
			baseline.Slate(),
		},
		Routines:      []blasops.Routine{blasops.Gemm, blasops.Trsm},
		Sizes:         []int{4096, 8192},
		Tiles:         []int{1024, 2048},
		ExtraTilesFor: map[string]bool{"cuBLAS-XT": true, "Slate": true},
		Runs:          2,
		NoiseAmp:      0.02,
	}
}

// pointsIdentical compares two point slices bit-for-bit (GFlops, CI95, NB,
// order, error text).
func pointsIdentical(t *testing.T, label string, a, b []Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: point counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.Lib != q.Lib || p.Routine != q.Routine || p.N != q.N {
			t.Fatalf("%s: point %d order differs: %v vs %v", label, i, p, q)
		}
		if p.NB != q.NB || p.GFlops != q.GFlops || p.CI95 != q.CI95 || p.Runs != q.Runs {
			t.Fatalf("%s: point %d values differ:\n  seq: %+v\n  par: %+v", label, i, p, q)
		}
		if p.Decisions != q.Decisions {
			t.Fatalf("%s: point %d decision counters differ:\n  seq: %v\n  par: %v",
				label, i, p.Decisions, q.Decisions)
		}
		if !p.Metrics.Equal(q.Metrics) {
			t.Fatalf("%s: point %d metrics snapshots differ (lens %d vs %d)",
				label, i, len(p.Metrics), len(q.Metrics))
		}
		pe, qe := "", ""
		if p.Err != nil {
			pe = p.Err.Error()
		}
		if q.Err != nil {
			qe = q.Err.Error()
		}
		if pe != qe {
			t.Fatalf("%s: point %d errors differ: %q vs %q", label, i, pe, qe)
		}
	}
}

// refSweep is the test oracle of the sweep harness: the plain sequential
// loop over the plans — one handle pool per point, tile by tile, repetition
// by repetition, a tile stopping at its first error — then reducePoint and
// the point's Progress line. RunSweep must reproduce it bit for bit at
// every worker count. Cancellation is not modelled; cancel_test.go pins it.
func refSweep(cfg Config, plans []sweepPlan) []Point {
	var out []Point
	for _, pl := range plans {
		pool := baseline.NewHandlePool()
		nbs := feasibleTiles(cfg, pl.lib, pl.n)
		tiles := make([]tileRuns, len(nbs))
		for ti, nb := range nbs {
			tiles[ti].nb = nb
			tiles[ti].res = make([]baseline.Result, effectiveRuns(cfg)+1)
			for rep := range tiles[ti].res {
				tiles[ti].res[rep] = runRep(cfg, pool, pl.lib, pl.r, pl.n, nb, rep)
				if tiles[ti].res[rep].Err != nil {
					break
				}
			}
		}
		p := reducePoint(pl.lib, pl.r, pl.n, tiles)
		out = append(out, p)
		progressLine(cfg.Progress, p)
	}
	return out
}

// workerCounts are the parallelism levels every parity test runs.
var workerCounts = []int{1, 4, runtime.NumCPU()}

// TestRunSweepParallelParity proves the determinism guarantee of the
// harness: at parallelism 1, 4 and NumCPU it returns the oracle's points
// and Progress stream bit for bit.
func TestRunSweepParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level sweep parity is not a -short test")
	}
	base := parityConfig()
	var refProgress bytes.Buffer
	base.Progress = &refProgress
	ref := refSweep(base, sweepPlans(base))

	for _, workers := range workerCounts {
		cfg := parityConfig()
		var progress bytes.Buffer
		cfg.Progress = &progress
		cfg.Parallel = workers
		got := RunSweep(cfg)
		pointsIdentical(t, fmt.Sprintf("parallel=%d", workers), ref, got)
		if progress.String() != refProgress.String() {
			t.Fatalf("parallel=%d progress stream differs:\n--- oracle ---\n%s--- RunSweep ---\n%s",
				workers, refProgress.String(), progress.String())
		}
	}
}

// TestMeasurePointParallelParity checks the per-tile/per-repetition fan-out
// inside a single point against the oracle, including the all-tiles-fail
// error path, and that MeasurePoint prints no Progress line.
func TestMeasurePointParallelParity(t *testing.T) {
	lib := baseline.XKBlas()
	for _, cfg := range []Config{
		{Tiles: []int{1024, 2048, 4096}, Runs: 3, NoiseAmp: 0.02},
		// All tiles infeasible under the cap: the tagged error.
		{Tiles: []int{512, 1024}, Runs: 1, MaxTilesPerDim: 2},
	} {
		n := 8192
		if cfg.MaxTilesPerDim > 0 {
			n = 16384
		}
		ref := refSweep(cfg, []sweepPlan{{lib: lib, r: blasops.Gemm, n: n}})
		for _, workers := range workerCounts {
			var progress bytes.Buffer
			cfg.Parallel, cfg.Progress = workers, &progress
			got := MeasurePoint(cfg, lib, blasops.Gemm, n)
			pointsIdentical(t, fmt.Sprintf("parallel=%d N=%d", workers, n), ref, []Point{got})
			if progress.Len() != 0 {
				t.Fatalf("MeasurePoint wrote progress %q", progress.String())
			}
		}
	}
}

// TestTileCandidatesDeduped covers the ExtraTilesFor dedupe: a tile listed
// both in cfg.Tiles and in the extra set is measured once.
func TestTileCandidatesDeduped(t *testing.T) {
	cfg := Config{
		Tiles:         []int{1024, 8192, 2048},
		ExtraTilesFor: map[string]bool{"cuBLAS-XT": true},
	}
	got := tileCandidates(cfg, baseline.CuBLASXT())
	want := []int{1024, 8192, 2048, 16384}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
	// A library without extras keeps the configured list untouched.
	plain := tileCandidates(cfg, baseline.XKBlas())
	if len(plain) != 3 {
		t.Fatalf("plain candidates = %v, want the 3 configured tiles", plain)
	}
}

// TestMeasurePointErrorRetainsTile asserts the all-tiles-fail point names
// the last failing tile size and retains its underlying error, instead of
// the bare placeholder; when no tile was even attempted the placeholder
// stands alone.
func TestMeasurePointErrorRetainsTile(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{Env: Env{Parallel: workers}, Tiles: []int{1024, 2048}, Runs: 1}
		p := MeasurePoint(cfg, &countingLib{fail: true}, blasops.Gemm, 8192)
		if p.Err == nil {
			t.Fatal("expected an error when every tile fails")
		}
		msg := p.Err.Error()
		if !strings.Contains(msg, "no feasible tile size") ||
			!strings.Contains(msg, "nb=2048") ||
			!strings.Contains(msg, "simulated allocation failure") {
			t.Fatalf("parallel=%d: error %q does not carry the last failing tile and cause", workers, msg)
		}
	}

	// No tile attempted at all: the placeholder must stay untagged.
	cfg := Config{Tiles: []int{512}, Runs: 1, MaxTilesPerDim: 4}
	p := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 16384)
	if p.Err == nil || p.Err.Error() != "no feasible tile size" {
		t.Fatalf("untried point error = %v, want bare placeholder", p.Err)
	}
}

// countingLib is a stub library that records how often Run is called and
// the largest goroutine count seen inside it. Every run fails when fail is
// set and succeeds at 1 GFlop/s otherwise.
type countingLib struct {
	fail                 bool
	calls, maxGoroutines atomic.Int64
}

func (*countingLib) Name() string                    { return "counting" }
func (*countingLib) Supports(r blasops.Routine) bool { return true }
func (l *countingLib) Run(req baseline.Request) baseline.Result {
	l.calls.Add(1)
	g := int64(runtime.NumGoroutine())
	for cur := l.maxGoroutines.Load(); g > cur && !l.maxGoroutines.CompareAndSwap(cur, g); cur = l.maxGoroutines.Load() {
	}
	runtime.Gosched()
	if l.fail {
		return baseline.Result{Err: fmt.Errorf("simulated allocation failure (nb=%d)", req.NB)}
	}
	return baseline.Result{GFlops: 1}
}

// TestRunSweepBoundedGoroutines pins the fixed worker set: a 216-leaf
// sweep at Parallel 4 never has more than 4 workers (the caller is one of
// them) plus a small slack alive, instead of one goroutine per leaf.
func TestRunSweepBoundedGoroutines(t *testing.T) {
	lib := &countingLib{}
	cfg := Config{
		Env:      Env{Parallel: 4},
		Libs:     []baseline.Library{lib},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{4096, 5120, 6144, 7168, 8192, 9216, 10240, 11264, 12288, 13312, 14336, 15360},
		Tiles:    []int{1024, 2048},
		Runs:     8,
	}
	start := int64(runtime.NumGoroutine())
	RunSweep(cfg)
	if got := lib.calls.Load(); got != 12*2*9 {
		t.Fatalf("Run called %d times, want %d", got, 12*2*9)
	}
	if limit := start + 4 + 2; lib.maxGoroutines.Load() > limit {
		t.Fatalf("%d goroutines alive during the sweep, want at most %d (start %d + 4 workers + 2)",
			lib.maxGoroutines.Load(), limit, start)
	}
}

// TestRunSweepStopsTileAtFirstError pins the early stop: with one worker a
// tile whose warm-up fails is not run again.
func TestRunSweepStopsTileAtFirstError(t *testing.T) {
	lib := &countingLib{fail: true}
	cfg := Config{Env: Env{Parallel: 1}, Tiles: []int{1024, 2048}, Runs: 3}
	if p := MeasurePoint(cfg, lib, blasops.Gemm, 8192); p.Err == nil {
		t.Fatal("expected an error when every tile fails")
	}
	if got := lib.calls.Load(); got != 2 {
		t.Fatalf("Run called %d times for 2 failing tiles, want one call per tile", got)
	}
}

// TestRunSweepParallelStress runs a small sweep at high parallelism; under
// -race it checks that concurrent simulations share no state.
func TestRunSweepParallelStress(t *testing.T) {
	cfg := Config{
		Env:      Env{Parallel: 16},
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.BLASX()},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{4096, 8192},
		Tiles:    []int{1024, 2048},
		Runs:     2,
		NoiseAmp: 0.02,
	}
	pts := RunSweep(cfg)
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %v failed: %v", p, p.Err)
		}
	}
}

// benchmarkSweep measures the wall-clock of one quick sweep at a given
// parallelism; comparing Parallel1 vs Parallel4 vs ParallelNumCPU shows the
// multi-core speedup of the harness.
func benchmarkSweep(b *testing.B, workers int) {
	cfg := Config{
		Env:      Env{Parallel: workers},
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.CuBLASXT(), baseline.BLASX()},
		Routines: []blasops.Routine{blasops.Gemm, blasops.Syr2k},
		Sizes:    []int{8192, 16384},
		Tiles:    []int{1024, 2048, 4096},
		Runs:     3,
		NoiseAmp: 0.02,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := RunSweep(cfg)
		if len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkSweepParallel1(b *testing.B)      { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel4(b *testing.B)      { benchmarkSweep(b, 4) }
func BenchmarkSweepParallelNumCPU(b *testing.B) { benchmarkSweep(b, runtime.NumCPU()) }
