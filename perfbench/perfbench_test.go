package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"xkblas/internal/serve"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != strings.Join(endToEndNames, ",") {
		t.Errorf("end_to_end %v, program reports %v", names, endToEndNames)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	m := metricSet{}
	endToEnd(m, []float64{1}, []iteration{{wall: 1e9, cpu: 1e9, allocBytes: 1e6, ops: 1}})
	if len(m) != len(endToEndNames) {
		t.Errorf("endToEnd sets %d metrics, want %d", len(m), len(endToEndNames))
	}
	for _, name := range endToEndNames {
		if m[name].Value == 0 {
			t.Errorf("%s is 0", name)
		}
	}
}

// TestSweepCheckCatchesOneByte perturbs one byte of each compared section
// of results_quick.txt and expects exactly one failed row.
func TestSweepCheckCatchesOneByte(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "results_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := splitSections(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweepSections {
		want := ref[s]
		if rows, bad := compareLines(want, want); bad != 0 || rows < 5 {
			t.Fatalf("%s: identical copy gives %d rows, %d bad", s, rows, bad)
		}
		got := append([]byte(nil), want...)
		i := len(got) / 2
		for got[i] == '\n' {
			i++
		}
		got[i] ^= 1
		if _, bad := compareLines(want, got); bad != 1 {
			t.Errorf("%s: one perturbed byte gives %d bad rows, want 1", s, bad)
		}
		if rows, bad := compareLines(want, append(got[:0:0], want[:len(want)-1]...)); bad != 1 || rows != strings.Count(string(want), "\n") {
			t.Errorf("%s: truncated last row gives %d of %d bad", s, bad, rows)
		}
	}
}

// TestServeCheckCatchesBadPartition feeds reports whose outcomes do not
// partition the requests.
func TestServeCheckCatchesBadPartition(t *testing.T) {
	good := &serve.Report{Requests: 10, Served: 6, Rejected: 3, TimedOut: 1,
		Tiers: []serve.TierStats{{Name: "a", Requests: 10, Served: 6, RejectedQuota: 2, RejectedQueue: 1, TimedOut: 1}}}
	if failed, problems := checkReport(good, 10); failed != 0 {
		t.Fatalf("consistent report failed: %v", problems)
	}
	twice := *good
	twice.Served++ // one request counted with two outcomes
	if failed, _ := checkReport(&twice, 10); failed != 1 {
		t.Errorf("double-counted request: %d failed, want 1", failed)
	}
	failedReq := *good
	failedReq.Tiers = []serve.TierStats{good.Tiers[0]}
	failedReq.Served, failedReq.Failed = 4, 2
	failedReq.Tiers[0].Served, failedReq.Tiers[0].Failed = 4, 2
	if failed, _ := checkReport(&failedReq, 10); failed != 2 {
		t.Errorf("two failed requests: %d failed, want 2", failed)
	}
}

// TestBignReferenceLoads checks that the recorded references parse and
// that one changed field no longer matches.
func TestBignReferenceLoads(t *testing.T) {
	s := &bignStream{}
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	ref := s.ref["interleaved"]
	changed := ref
	changed.WindowStalls++
	if changed == ref {
		t.Fatal("a changed stall count compares equal")
	}
	if len(serveRefJSON) == 0 || !json.Valid(serveRefJSON) {
		t.Fatal("refs/serve_seed1.json is not a JSON report")
	}
}

// TestFunctionalCheckCatchesOneTile runs the functional workload at N=512
// through the simulated runtime, expects it to pass, then perturbs one tile
// of each output and expects the check to fail.
func TestFunctionalCheckCatchesOneTile(t *testing.T) {
	f := &functional{seed: 5, n: 512}
	if err := f.setup(); err != nil {
		t.Fatal(err)
	}
	it, err := f.iterate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.attempted != 3 || it.failed != 0 {
		t.Fatalf("clean run: %d attempted, %d failed", it.attempted, it.failed)
	}
	perturbTile := func(name string, v interface{ Add(i, j int, x float64) }, ti, tj int) {
		t.Helper()
		for j := tj * funcNB; j < (tj+1)*funcNB; j++ {
			for i := ti * funcNB; i < (ti+1)*funcNB; i++ {
				v.Add(i, j, 1e-3)
			}
		}
		if err := f.check(name); err == nil {
			t.Errorf("%s: perturbed tile (%d,%d) passed the check", name, ti, tj)
		}
	}
	perturbTile("gemm", f.gc, 1, 0)
	perturbTile("syr2k", f.sc, 1, 1)
	perturbTile("trsm", f.tb, 0, 1)
	f.sc.CopyFrom(f.sc0) // the lower triangle is now wrong too; restore it all
	f.sc.Add(0, f.n-1, 1)
	if err := f.check("syr2k"); err == nil {
		t.Error("syr2k: a changed upper-triangle element passed the check")
	}
}

// TestProfileReader writes a CPU profile of a busy loop and reads it back.
func TestProfileReader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples")
	}
	if frac := p.cumFrac("xkblas/perfbench.spin"); frac < 0.5 {
		t.Errorf("spin holds %.2f of the samples, want most\n%s", frac, p.table())
	}
	if got := layerOf(pkgOf("xkblas/internal/cache.(*Cache).evict")); got != "cache" {
		t.Errorf("layer of cache.evict = %q", got)
	}
	if got := layerOf(pkgOf("runtime.mallocgc")); got != "runtime" {
		t.Errorf("layer of runtime.mallocgc = %q", got)
	}
}

//go:noinline
func spin() {
	x := 1.0
	for i := 0; i < 300_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	sink += int(x)
}
