package bench

import (
	"math"
	"sync"
	"sync/atomic"

	"xkblas/internal/baseline"
	"xkblas/internal/fanout"
)

// Sweep execution: the one path by which a point is measured.
//
// Every simulated repetition owns a private sim.Engine and platform, so
// the runs of a sweep are independent. The harness flattens a sweep into
// its leaves — one (point, tile, repetition) simulation each — in plan
// order and dispatches them, in that order, to max(1, Env.Parallel)
// workers (internal/fanout). The worker that finishes a point's last leaf
// commits it: under one lock it reduces and reports every finished point
// that has no unfinished predecessor, in plan order, then drops their
// handle pools and leaf results. With one worker this is the sequential
// loop; at any worker count the points and the Progress stream are
// bit-identical to it. See DESIGN.md §6.

// sweepPoint is one planned point while its leaves run.
type sweepPoint struct {
	plan sweepPlan
	// handles recycles library contexts across the point's leaves: they
	// share one library, hence one context configuration.
	handles *baseline.HandlePool
	tiles   []tileRuns
	pending atomic.Int64 // leaves not yet finished
	done    bool         // every leaf finished; guarded by sweep.mu
}

// leaf is one simulated repetition of a sweep.
type leaf struct{ point, tile, rep int }

// sweep is the state of one runPlans call.
type sweep struct {
	cfg    Config
	points []sweepPoint
	mu     sync.Mutex
	out    []Point // committed points, in plan order
	cut    bool    // a committed point was cancelled
}

// runPlans measures the planned points: the single execution path behind
// RunSweep and MeasurePoint.
func runPlans(cfg Config, plans []sweepPlan) []Point {
	runs := effectiveRuns(cfg)
	s := &sweep{cfg: cfg, points: make([]sweepPoint, len(plans)), out: make([]Point, 0, len(plans))}
	var leaves []leaf
	for pi, pl := range plans {
		sp := &s.points[pi]
		sp.plan, sp.handles = pl, baseline.NewHandlePool()
		nbs := feasibleTiles(cfg, pl.lib, pl.n)
		sp.tiles = make([]tileRuns, len(nbs))
		for ti, nb := range nbs {
			sp.tiles[ti].nb = nb
			sp.tiles[ti].res = make([]baseline.Result, runs+1)
			sp.tiles[ti].failed.Store(math.MaxInt32)
			for rep := 0; rep <= runs; rep++ {
				leaves = append(leaves, leaf{pi, ti, rep})
			}
		}
		sp.pending.Store(int64(len(nbs) * (runs + 1)))
		if len(nbs) == 0 {
			s.finish(pi) // no feasible tile: nothing to run
		}
	}
	fanout.Each(cfg.Parallel, len(leaves), func(i int) {
		lf := leaves[i]
		sp := &s.points[lf.point]
		tr := &sp.tiles[lf.tile]
		if tr.failed.Load() > int32(lf.rep) {
			res := runRep(cfg, sp.handles, sp.plan.lib, sp.plan.r, sp.plan.n, tr.nb, lf.rep)
			tr.res[lf.rep] = res
			if res.Err != nil {
				tr.fail(int32(lf.rep))
			}
		}
		if sp.pending.Add(-1) == 0 {
			s.finish(lf.point)
		}
	})
	return s.out
}

// finish marks point pi complete, then commits every complete point that
// has no uncommitted predecessor: reduce it (or cut it, once a point was
// cancelled), print its Progress line and drop its pools and results.
func (s *sweep) finish(pi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points[pi].done = true
	for len(s.out) < len(s.points) && s.points[len(s.out)].done {
		sp := &s.points[len(s.out)]
		pl := sp.plan
		var p Point
		s.cut = s.cut || pointCanceled(sp.tiles)
		if s.cut {
			p = canceledPoint(s.cfg, pl.lib, pl.r, pl.n)
		} else {
			p = reducePoint(pl.lib, pl.r, pl.n, sp.tiles)
		}
		sp.handles, sp.tiles = nil, nil
		s.out = append(s.out, p)
		progressLine(s.cfg.Progress, p)
	}
}
