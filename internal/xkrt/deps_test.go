package xkrt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xkblas/internal/cache"
	"xkblas/internal/matrix"
)

// refDeps is the map-keyed dependency tracker the Seq-indexed table
// replaced, kept as the oracle: wire and prune are the former
// Runtime.wire/pruneTables loops, except that edges are recorded in succs
// instead of on the tasks, so both trackers can run over the same tasks.
type refDeps struct {
	lastWriter map[cache.TileKey]*Task
	readers    map[cache.TileKey][]*Task
	succs      map[*Task][]*Task
}

func newRefDeps() *refDeps {
	return &refDeps{
		lastWriter: make(map[cache.TileKey]*Task),
		readers:    make(map[cache.TileKey][]*Task),
		succs:      make(map[*Task][]*Task),
	}
}

// wire returns t's predecessors in linking order.
func (r *refDeps) wire(t *Task) []*Task {
	var deps []*Task
	addDep := func(p *Task) {
		if p == nil || p.state == stateDone || p == t {
			return
		}
		for _, d := range deps {
			if d == p {
				return
			}
		}
		deps = append(deps, p)
		r.succs[p] = append(r.succs[p], t)
	}
	for _, a := range t.acc {
		k := a.Tile.Key
		if a.Mode.reads() {
			addDep(r.lastWriter[k])
		}
		if a.Mode.writes() {
			addDep(r.lastWriter[k])
			for _, p := range r.readers[k] {
				addDep(p)
			}
		}
	}
	for _, a := range t.acc {
		k := a.Tile.Key
		if a.Mode.writes() {
			r.lastWriter[k] = t
			r.readers[k] = r.readers[k][:0]
		} else {
			r.readers[k] = append(r.readers[k], t)
		}
	}
	return deps
}

func (r *refDeps) prune(t *Task) {
	for _, a := range t.acc {
		k := a.Tile.Key
		if a.Mode.writes() {
			if r.lastWriter[k] == t {
				delete(r.lastWriter, k)
			}
		} else if rs := r.readers[k]; len(rs) > 0 {
			for i, p := range rs {
				if p == t {
					r.readers[k] = append(rs[:i:i], rs[i+1:]...)
					break
				}
			}
		}
	}
}

// depsReplay drives Runtime.wire/pruneTables and the oracle side by side
// over one runtime generation: submissions with random accesses to tiles
// reached through overlapping Matrix.Sub aliases, interleaved with
// completions of tasks whose predecessors are done.
type depsReplay struct {
	t     *testing.T
	rt    *Runtime
	ref   *refDeps
	rng   *rand.Rand
	views []*Matrix // the registered matrices and sub-matrix aliases of them
	tiles []*cache.Tile
	live  []*Task
}

func newDepsReplay(t *testing.T, rt *Runtime, rng *rand.Rand, grid int) *depsReplay {
	a := rt.Register(matrix.NewShape(grid*16, grid*16), 16)
	b := rt.Register(matrix.NewShape(16, grid*16), 16)
	h := grid / 2
	views := []*Matrix{a, b, a.Sub(0, 0, h+1, h+1), a.Sub(h-1, h-1, grid-h+1, grid-h+1), a.Sub(1, 0, grid-1, grid)}
	r := &depsReplay{t: t, rt: rt, ref: newRefDeps(), rng: rng, views: views}
	for _, m := range []*Matrix{a, b} {
		m.EachTile(func(_, _ int, tl *cache.Tile) { r.tiles = append(r.tiles, tl) })
	}
	return r
}

// randTile picks a tile through a random view, so aliases of one record
// are reached under different sub-matrix coordinates.
func (r *depsReplay) randTile() *cache.Tile {
	m := r.views[r.rng.Intn(len(r.views))]
	return m.Tile(r.rng.Intn(m.Rows()), r.rng.Intn(m.Cols()))
}

func (r *depsReplay) submit() {
	n := 1 + r.rng.Intn(4)
	acc := make([]Access, 0, n)
	for len(acc) < n {
		tl := r.randTile()
		switch k := r.rng.Intn(10); {
		case k < 2 && len(acc) > 0:
			// Repeat an earlier tile of this task: duplicate reads, or a
			// read and a read-write of one tile.
			tl = acc[r.rng.Intn(len(acc))].Tile
			acc = append(acc, Access{Tile: tl, Mode: []Mode{Read, ReadWrite}[r.rng.Intn(2)]})
		case k < 6:
			acc = append(acc, R(tl))
		case k < 8:
			acc = append(acc, RW(tl))
		default:
			acc = append(acc, W(tl))
		}
	}
	task := r.rt.newTask(kindCompute, acc)
	before := make([]int, len(r.live))
	for i, p := range r.live {
		before[i] = len(p.succs)
	}
	r.rt.wire(task)
	var got []*Task
	for i, p := range r.live {
		if len(p.succs) > before[i] {
			got = append(got, p)
		}
	}
	want := r.ref.wire(task)
	if !samePreds(got, want) || task.preds != len(want) {
		r.t.Fatalf("task %d %v: dense preds %s (count %d), oracle %s",
			task.id, task.acc, ids(got), task.preds, ids(want))
	}
	r.live = append(r.live, task)
}

// complete retires a random live task whose predecessors are all done.
func (r *depsReplay) complete() {
	var ready []int
	for i, p := range r.live {
		if p.preds == 0 {
			ready = append(ready, i)
		}
	}
	if len(ready) == 0 {
		return
	}
	i := ready[r.rng.Intn(len(ready))]
	task := r.live[i]
	r.live = slices.Delete(r.live, i, i+1)
	task.state = stateDone
	for _, s := range task.succs {
		s.preds--
	}
	r.rt.pruneTables(task)
	r.ref.prune(task)
}

// check compares every live task's successor list, in order, and every
// tile's table entry with the oracle.
func (r *depsReplay) check(step int) {
	for _, p := range r.live {
		if !slices.Equal(p.succs, r.ref.succs[p]) {
			r.t.Fatalf("step %d: task %d succs %s, oracle %s", step, p.id, ids(p.succs), ids(r.ref.succs[p]))
		}
	}
	for _, tl := range r.tiles {
		var d tileDeps
		if tl.Seq < len(r.rt.deps) {
			d = r.rt.deps[tl.Seq]
		}
		if d.writer != r.ref.lastWriter[tl.Key] {
			r.t.Fatalf("step %d: tile %v writer %s, oracle %s", step, tl.Key,
				ids([]*Task{d.writer}), ids([]*Task{r.ref.lastWriter[tl.Key]}))
		}
		if len(d.readers) != 0 || len(r.ref.readers[tl.Key]) != 0 {
			if !slices.Equal(d.readers, r.ref.readers[tl.Key]) {
				r.t.Fatalf("step %d: tile %v readers %s, oracle %s", step, tl.Key, ids(d.readers), ids(r.ref.readers[tl.Key]))
			}
		}
	}
}

// run replays steps random submissions and completions; drain then
// retires every task still live.
func (r *depsReplay) run(steps int, drain bool) {
	for s := 0; s < steps; s++ {
		if r.rng.Intn(3) == 0 {
			r.complete()
		} else {
			r.submit()
		}
		r.check(s)
	}
	for drain && len(r.live) > 0 {
		r.complete()
		r.check(steps)
	}
}

func samePreds(a, b []*Task) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		if !slices.Contains(b, p) {
			return false
		}
	}
	return true
}

func ids(ts []*Task) string {
	out := make([]string, len(ts))
	for i, t := range ts {
		if t == nil {
			out[i] = "-"
		} else {
			out[i] = fmt.Sprint(t.id)
		}
	}
	return fmt.Sprint(out)
}

// TestDepsMatchMapOracle replays seeded random access sequences through the
// Seq-indexed dependency table and the map-keyed oracle and requires the
// same predecessor set for every task, the same successor lists and the
// same per-tile writer and readers after every step. Each seed runs two
// runtime generations. The first is abandoned with tasks still live, as a
// cancelled run leaves it; after Reset, the second registers more tiles
// than the first, so the table both reuses cleared entries and grows.
func TestDepsMatchMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := newRuntime(false, DefaultOptions())
		first := newDepsReplay(t, rt, rng, 4)
		first.run(300, false)
		if len(first.live) == 0 {
			t.Fatalf("seed %d: first generation drained; Reset would see empty tables", seed)
		}
		firstLen := len(rt.deps)

		rt.Eng.Reset()
		rt.Plat.Reset()
		rt.Reset()
		for i, d := range rt.deps {
			if d.writer != nil || len(d.readers) != 0 {
				t.Fatalf("seed %d: Reset left table entry %d populated", seed, i)
			}
		}
		newDepsReplay(t, rt, rng, 6).run(500, true)
		if len(rt.deps) <= firstLen {
			t.Fatalf("seed %d: second generation did not grow the table (%d entries, first had %d)", seed, len(rt.deps), firstLen)
		}
	}
}
