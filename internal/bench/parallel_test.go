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

// TestRunSweepParallelParity proves the determinism guarantee of the
// parallel harness: parallelism 1, 4 and NumCPU return bit-identical
// points and identical Progress streams.
func TestRunSweepParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level sweep parity is not a -short test")
	}
	base := parityConfig()
	var seqProgress bytes.Buffer
	base.Progress = &seqProgress
	base.Parallel = 1
	seq := RunSweep(base)

	for _, workers := range []int{4, runtime.NumCPU()} {
		cfg := parityConfig()
		var progress bytes.Buffer
		cfg.Progress = &progress
		cfg.Parallel = workers
		par := RunSweep(cfg)
		pointsIdentical(t, fmt.Sprintf("parallel=%d", workers), seq, par)
		if progress.String() != seqProgress.String() {
			t.Fatalf("parallel=%d progress stream differs:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seqProgress.String(), progress.String())
		}
	}
}

// TestMeasurePointParallelParity checks the per-tile/per-repetition fan-out
// inside a single point, including the all-tiles-fail error path.
func TestMeasurePointParallelParity(t *testing.T) {
	cfg := Config{Tiles: []int{1024, 2048, 4096}, Runs: 3, NoiseAmp: 0.02}
	lib := baseline.XKBlas()
	seq := MeasurePoint(cfg, lib, blasops.Gemm, 8192)
	cfg.Parallel = 4
	par := MeasurePoint(cfg, lib, blasops.Gemm, 8192)
	pointsIdentical(t, "point", []Point{seq}, []Point{par})

	// All tiles infeasible under the cap: both paths must surface the same
	// tagged error.
	failCfg := Config{Tiles: []int{512, 1024}, Runs: 1, MaxTilesPerDim: 2}
	seqErr := MeasurePoint(failCfg, lib, blasops.Gemm, 16384)
	failCfg.Parallel = 4
	parErr := MeasurePoint(failCfg, lib, blasops.Gemm, 16384)
	if seqErr.Err == nil || parErr.Err == nil {
		t.Fatalf("expected errors, got seq=%v par=%v", seqErr.Err, parErr.Err)
	}
	pointsIdentical(t, "error point", []Point{seqErr}, []Point{parErr})
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

// failingLib is a stub library whose every run fails, for exercising the
// all-tiles-fail error path deterministically.
type failingLib struct{}

func (failingLib) Name() string                    { return "failing" }
func (failingLib) Supports(r blasops.Routine) bool { return true }
func (failingLib) Run(req baseline.Request) baseline.Result {
	return baseline.Result{Err: fmt.Errorf("simulated allocation failure (nb=%d)", req.NB)}
}

// TestMeasurePointErrorRetainsTile asserts the all-tiles-fail point names
// the last failing tile size and retains its underlying error, instead of
// the bare placeholder; when no tile was even attempted the placeholder
// stands alone.
func TestMeasurePointErrorRetainsTile(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{Env: Env{Parallel: workers}, Tiles: []int{1024, 2048}, Runs: 1}
		p := MeasurePoint(cfg, failingLib{}, blasops.Gemm, 8192)
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

// TestWorkerPoolStress hammers the pool with many tiny tasks at high
// concurrency; run with -race to verify the harness is race-clean.
func TestWorkerPoolStress(t *testing.T) {
	const tasks = 2000
	pool := newWorkerPool(32)
	var counter atomic.Int64
	slots := make([]int64, tasks)
	for i := 0; i < tasks; i++ {
		pool.Submit(func() {
			slots[i] = counter.Add(1)
			runtime.Gosched()
		})
	}
	pool.Wait()
	if got := counter.Load(); got != tasks {
		t.Fatalf("ran %d tasks, want %d", got, tasks)
	}
	for i, v := range slots {
		if v == 0 {
			t.Fatalf("task %d never ran", i)
		}
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
