package xkrt

import (
	"errors"
	"math/rand"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Randomized DAG audit sweep: every policy.Bundle combination (source
// selector x scheduler x evictor cross product) runs seeded random task
// graphs on memory-starved DGX-1, DGX-2 and Summit platforms, in both
// functional and timing mode, with the coherence auditor attached in
// record mode. Any protocol violation — on clean runs AND on runs aborted
// by device OOM — fails the test. Functional runs additionally check
// sequential consistency of the results; this is the harness that flushed
// out the chained-forward eviction bug fixed in fetch.go.

// auditSources is every source-selection heuristic the policy layer offers,
// including both optimistic (§III-C) wrappings.
func auditSources() []policy.SourceSelector {
	return []policy.SourceSelector{
		policy.TopoRank{},
		policy.LowestID{},
		policy.HostOnly{},
		policy.SameSwitch{Base: policy.TopoRank{}},
		policy.Optimistic{Base: policy.TopoRank{}, Ranked: true},
		policy.Optimistic{Base: policy.LowestID{}},
	}
}

func auditSchedulers() []policy.Scheduler {
	return []policy.Scheduler{
		policy.WorkStealing{},
		policy.WorkStealing{NoSteal: true},
		policy.DMDAS{},
	}
}

func auditEvictors() []policy.Evictor {
	return []policy.Evictor{
		policy.LRUReadOnlyFirst{},
		policy.Streaming{},
	}
}

func auditTopologies() []struct {
	name string
	mk   func() *topology.Platform
} {
	return []struct {
		name string
		mk   func() *topology.Platform
	}{
		{"dgx1", topology.DGX1},
		{"dgx2", topology.DGX2},
		{"summit", topology.SummitNode},
	}
}

func TestAuditRandomDAGSweep(t *testing.T) {
	var bundles []policy.Bundle
	for _, src := range auditSources() {
		for _, sch := range auditSchedulers() {
			for _, ev := range auditEvictors() {
				bundles = append(bundles, policy.Bundle{Source: src, Scheduler: sch, Evictor: ev})
			}
		}
	}
	topos := auditTopologies()
	var runs, oomRuns int
	for bi := range bundles {
		for ti, tp := range topos {
			for _, win := range []int{1, 3} {
				for _, functional := range []bool{true, false} {
					seed := int64(bi*311 + ti*17 + win)
					oom := runAuditStress(t, bundles[bi], tp.name, tp.mk, win, functional, seed)
					runs++
					if oom {
						oomRuns++
					}
				}
			}
		}
	}
	t.Logf("audit sweep: %d runs over %d bundles (%d aborted by device OOM, all violation-free)",
		runs, len(bundles), oomRuns)
	// The tight pools must actually exercise the OOM abort path somewhere
	// in the sweep, or the tolerance branch below is dead code.
	if oomRuns == 0 {
		t.Error("no run hit device OOM — pools too large to stress eviction/abort paths")
	}
	if oomRuns == runs {
		t.Error("every run hit device OOM — pools too small to audit complete runs")
	}
}

// runAuditStress executes one seeded random DAG under one configuration and
// returns whether the run was aborted by device OOM (tolerated: tiny pools
// make some schedules unservable; anything else fails the test).
func runAuditStress(t *testing.T, b policy.Bundle, topoName string,
	mkTopo func() *topology.Platform, win int, functional bool, seed int64) bool {
	t.Helper()
	const nTiles, nTasks, nb = 10, 40, 8
	rng := rand.New(rand.NewSource(seed))

	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, mkTopo())
	// Starve device memory: eight tiles per GPU forces constant eviction and
	// occasionally a genuine OOM abort (window operands + in-flight
	// prefetches + flush pins can exceed eight pinned residents).
	tileBytes := int64(nb * nb * matrix.WordSize)
	for _, g := range plat.GPUs {
		g.Mem = device.NewMemPool(tileBytes*8 + 32)
	}
	rt := New(eng, plat, functional, Options{Window: win, Policy: b})
	audit := check.New(false)
	rt.AttachAuditor(audit)

	var ms []*Matrix
	for i := 0; i < nTiles; i++ {
		v := matrix.New(nb, nb)
		for x := range v.Data {
			v.Data[x] = float64(i*100 + x)
		}
		ms = append(ms, rt.Register(v, nb))
	}

	// Sequential reference (functional mode only): same update as the
	// kernel body below, applied in submission order.
	ref := make([][]float64, nTiles)
	for i := range ref {
		ref[i] = make([]float64, nb*nb)
		for x := range ref[i] {
			ref[i][x] = float64(i*100 + x)
		}
	}

	for s := 0; s < nTasks; s++ {
		w := rng.Intn(nTiles)
		var reads []int
		for r := 0; r < 1+rng.Intn(2); r++ {
			if in := rng.Intn(nTiles); in != w {
				reads = append(reads, in)
			}
		}
		accs := []Access{RW(ms[w].Tile(0, 0))}
		for _, r := range reads {
			accs = append(accs, R(ms[r].Tile(0, 0)))
		}
		spec := KernelSpec{
			Routine: blasops.Gemm, M: nb, N: nb, K: nb,
			Flops: float64(1000 + rng.Intn(50000)),
			Body: func(bufs []matrix.View) {
				dst := bufs[0]
				for x := 0; x < nb*nb; x++ {
					i, j := x%nb, x/nb
					v := dst.At(i, j) * 0.5
					for _, src := range bufs[1:] {
						v += src.At(i, j) * 0.25
					}
					dst.Set(i, j, v+1)
				}
			},
		}
		rt.Submit("audit-stress", spec, rng.Intn(4), accs...)
		for x := range ref[w] {
			v := ref[w][x] * 0.5
			for _, r := range reads {
				v += ref[r][x] * 0.25
			}
			ref[w][x] = v + 1
		}
	}
	for _, m := range ms {
		rt.SubmitFlush(m.Tile(0, 0))
	}
	rt.Barrier()

	cfg := func() string {
		mode := "timing"
		if functional {
			mode = "functional"
		}
		return b.Name() + " " + topoName + " " + mode
	}
	if !audit.Ok() {
		t.Fatalf("%s win=%d seed=%d: %d violations; first: %v",
			cfg(), win, seed, len(audit.Violations()), audit.Violations()[0])
	}
	if err := rt.Err(); err != nil {
		if !errors.Is(err, cache.ErrDeviceOOM) {
			t.Fatalf("%s win=%d seed=%d: run failed with non-OOM error: %v",
				cfg(), win, seed, err)
		}
		return true
	}
	if audit.Events() == 0 {
		t.Fatalf("%s win=%d seed=%d: auditor saw no events — hooks not wired", cfg(), win, seed)
	}
	if functional {
		for i, m := range ms {
			for x := 0; x < nb*nb; x++ {
				if got, want := m.View.Data[x], ref[i][x]; got != want {
					t.Fatalf("%s win=%d seed=%d: tile %d elem %d = %g, want %g (sequential consistency violated)",
						cfg(), win, seed, i, x, got, want)
				}
			}
		}
	}
	return false
}

// evilEvictor approves eviction of pinned and under-transfer replicas —
// transitions the real policies never request. It only spares dirty
// candidates because the cache itself panics on those before the auditor
// can record the drop.
type evilEvictor struct{}

func (evilEvictor) Name() string                             { return "evil" }
func (evilEvictor) ShouldEvict(c policy.EvictCandidate) bool { return !c.Dirty }
func (evilEvictor) RetainAfterRead() bool                    { return true }

// TestAuditCatchesEvilEvictor is the harness-level mutation self-test: an
// eviction policy that drops a pinned replica must be caught by the
// drop-pinned invariant, proving the auditor guards the eviction gate and
// not just the transition bookkeeping.
func TestAuditCatchesEvilEvictor(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	tileBytes := int64(64 * 64 * matrix.WordSize)
	plat.GPUs[0].Mem = device.NewMemPool(tileBytes + 64)
	c := cache.New(plat, false)
	audit := check.New(false)
	c.Audit = audit
	c.Evictor = evilEvictor{}

	a := c.NewTile(cache.TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))
	b := c.NewTile(cache.TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))
	if err := c.StartTransfer(a, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	c.Pin(a, 0)
	// b does not fit next to a; the evil evictor drops the pinned replica.
	if err := c.StartTransfer(b, topology.Host, 0, nil); err != nil {
		t.Fatalf("evil eviction did not free space: %v", err)
	}
	found := false
	for _, v := range audit.Violations() {
		if v.Code == "drop-pinned" {
			found = true
		}
	}
	if !found {
		t.Fatalf("auditor missed the pinned eviction; recorded: %v", audit.Violations())
	}
}
