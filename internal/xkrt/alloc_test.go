package xkrt

import (
	"testing"

	"xkblas/internal/cache"
	"xkblas/internal/matrix"
)

// TestSubmitSteadyStateAllocBudget is the allocation gate behind `make
// bench-alloc`: on a warmed runtime one full submit→run→retire wave of 64
// tasks must stay within a fixed allocation budget. The steady-state task
// path runs entirely on arenas — task records, access slices, dependency
// scratch, dependency table, ready queues, engine events, kernel-completion
// and transfer-join records — so the only allocations left are the
// per-fetch staging closures and the barrier condition (measured 6/wave;
// budget 16 leaves headroom without letting a per-task allocation regress
// in: 64 tasks would blow straight past it).
func TestSubmitSteadyStateAllocBudget(t *testing.T) {
	rig := newBenchRig()
	rig.submitWave()
	rig.rt.Barrier()
	allocs := testing.AllocsPerRun(20, func() {
		rig.submitWave()
		rig.rt.Barrier()
	})
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
	const budget = 16
	if allocs > budget {
		t.Fatalf("steady-state wave allocates %.1f objects (budget %d, 64 tasks/wave): the task arena is leaking allocations", allocs, budget)
	}
}

// TestSubAliasesArenaRecycledTiles: Matrix.Sub must share the parent's
// cache tile records by pointer — including records the arena recycled
// from an earlier runtime generation — because overlapping sub-matrices
// are ordered through dependency tables keyed on those pointers.
func TestSubAliasesArenaRecycledTiles(t *testing.T) {
	rig := newBenchRig()
	rig.submitWave()
	rig.rt.Barrier()

	// Remember the first generation's tile records, then retire them all.
	oldTiles := make(map[*cache.Tile]bool, benchGrid*benchGrid)
	rig.m.EachTile(func(_, _ int, tl *cache.Tile) { oldTiles[tl] = true })

	rig.reset()
	m2 := rig.rt.Register(matrix.NewShape(benchGrid*256, benchGrid*256), 256)

	recycled := 0
	m2.EachTile(func(_, _ int, tl *cache.Tile) {
		if oldTiles[tl] {
			recycled++
		}
	})
	if recycled == 0 {
		t.Fatal("no tile record recycled across Reset: the tile arena is not being reused")
	}

	sub := m2.Sub(2, 3, 4, 5)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			if sub.Tile(r, c) != m2.Tile(2+r, 3+c) {
				t.Fatalf("sub tile (%d,%d) does not alias parent tile (%d,%d)", r, c, 2+r, 3+c)
			}
		}
	}
}

// TestEachTileOnRecycledTiles: after a Reset, re-registered matrices draw
// recycled tile records from the arena; EachTile must visit them in
// row-major order with correct fresh keys and dimensions, and running work
// over them must behave like a fresh runtime (same makespan as the first
// generation's identical wave).
func TestEachTileOnRecycledTiles(t *testing.T) {
	rig := newBenchRig()
	rig.submitWave()
	first := rig.rt.Barrier()
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}

	rig.reset()
	m2 := rig.rt.Register(matrix.NewShape(benchGrid*256, benchGrid*256), 256)
	want := 0
	m2.EachTile(func(i, j int, tl *cache.Tile) {
		if tl.Key.I != i || tl.Key.J != j {
			t.Fatalf("recycled tile at (%d,%d) kept stale key %v", i, j, tl.Key)
		}
		if tl != m2.Tile(i, j) {
			t.Fatalf("EachTile visits a different record than Tile(%d,%d)", i, j)
		}
		if tl.M != 256 || tl.N != 256 {
			t.Fatalf("recycled tile (%d,%d) has stale dims %dx%d", i, j, tl.M, tl.N)
		}
		want++
	})
	if want != benchGrid*benchGrid {
		t.Fatalf("EachTile visited %d tiles, want %d", want, benchGrid*benchGrid)
	}

	rig.m = m2
	rig.submitWave()
	second := rig.rt.Barrier()
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("wave on recycled tiles finished at %v, fresh runtime at %v: Reset is not bit-identical", second, first)
	}
}
