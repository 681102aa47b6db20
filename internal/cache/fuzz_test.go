package cache

import (
	"math/rand"
	"testing"

	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Randomized coherence fuzz: drive legal sequences of transfers, writes,
// flushes and invalidations against a small-memory platform and check the
// protocol invariants after every simulated step:
//
//  1. single-writer: at most one dirty replica, and host-invalid implies
//     exactly one dirty replica exists;
//  2. memory accounting: per-device pool usage equals the sum of resident
//     replica footprints;
//  3. functional coherence: any valid replica holds the same bytes as the
//     latest version;
//  4. dense state: the valid and in-flight masks agree with the replica and
//     under-transfer records, and each device's eviction list holds exactly
//     its non-dirty replicas in strictly increasing stamp order, with the
//     per-device dirty count matching the dirty replicas off the list.
func TestCacheCoherenceFuzz(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fuzzOnce(t, seed)
	}
}

type fuzzState struct {
	eng   *sim.Engine
	plat  *device.Platform
	c     *Cache
	tiles []*Tile
	// version counters: what the latest write stamped into the tile.
	version []int
}

func fuzzOnce(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	// Small pools force evictions.
	const nb = 16
	tileBytes := int64(nb * nb * 8)
	for _, g := range plat.GPUs {
		g.Mem = device.NewMemPool(tileBytes*3 + 16)
	}
	c := New(plat, true)
	// Record-mode auditor: every transition the fuzzer drives is also
	// replayed against the shadow protocol model.
	audit := check.New(false)
	c.Audit = audit
	st := &fuzzState{eng: eng, plat: plat, c: c}
	const nTiles = 6
	for i := 0; i < nTiles; i++ {
		v := matrix.New(nb, nb)
		for x := range v.Data {
			v.Data[x] = float64(i)
		}
		st.tiles = append(st.tiles, c.NewTile(TileKey{Mat: MatrixID(i)}, v))
		st.version = append(st.version, 0)
	}

	for step := 0; step < 300; step++ {
		tl := st.tiles[rng.Intn(nTiles)]
		dev := topology.DeviceID(rng.Intn(8))
		switch rng.Intn(5) {
		case 0: // fetch to dev from any legal source
			if tl.ValidOn(dev) || tl.InflightTo(dev) {
				break
			}
			src := topology.Host
			if gs := tl.ValidGPUs(); len(gs) > 0 && rng.Intn(2) == 0 {
				src = gs[rng.Intn(len(gs))]
			} else if !tl.HostValid() {
				if d := tl.DirtyOn(); d >= 0 {
					src = d
				} else {
					break // only copy is in flight
				}
			}
			_ = c.StartTransfer(tl, src, dev, nil)
		case 1: // write on a device holding a valid replica
			if !tl.ValidOn(dev) || tl.InflightTo(dev) {
				break
			}
			// The dependency layer guarantees a writer never races an
			// in-flight read or flush of the same tile; the fuzzer must
			// respect the same precondition.
			if len(tl.InflightDsts()) > 0 || tl.flushing {
				break
			}
			pinned := false
			for d, r := range tl.reps {
				if r != nil && topology.DeviceID(d) != dev && r.pins > 0 {
					pinned = true
				}
			}
			if pinned {
				break
			}
			idx := indexOf(st.tiles, tl)
			st.version[idx]++
			buf := c.DeviceBuf(tl, dev)
			for x := range buf.Data[:nb*nb] {
				buf.Data[x] = float64(idx) + float64(st.version[idx])*1000
			}
			c.MarkDirty(tl, dev)
		case 2: // flush
			c.FlushToHost(tl, nil)
		case 3: // invalidate (host must be valid, no replica busy)
			if !tl.HostValid() || len(tl.InflightDsts()) > 0 {
				break
			}
			busy := false
			for _, g := range tl.ValidGPUs() {
				if tl.reps[g].pins > 0 {
					busy = true
				}
			}
			if !busy {
				c.Invalidate(tl)
			}
		case 4: // run the engine forward
			st.eng.RunUntil(st.eng.Now() + sim.Time(rng.Float64()*1e-3))
		}
		checkInvariants(t, st, seed, step)
	}
	st.eng.Run()
	checkInvariants(t, st, seed, -1)
	// Final coherence: flush everything and verify contents.
	for i, tl := range st.tiles {
		c.FlushToHost(tl, nil)
		_ = i
	}
	st.eng.Run()
	for i, tl := range st.tiles {
		want := float64(i)
		if st.version[i] > 0 {
			want = float64(i) + float64(st.version[i])*1000
		}
		if got := tl.Host.At(0, 0); got != want {
			t.Fatalf("seed %d: tile %d final host value %g, want %g", seed, i, got, want)
		}
	}
	// Quiescent state: everything flushed and settled, so the auditor's
	// drain checks must hold, and the whole run must be violation-free.
	c.AuditDrain()
	if !audit.Ok() {
		t.Fatalf("seed %d: auditor flagged %d violations; first: %v",
			seed, len(audit.Violations()), audit.Violations()[0])
	}
	if audit.Events() == 0 {
		t.Fatalf("seed %d: auditor saw no events — hooks not wired", seed)
	}
}

func indexOf(ts []*Tile, tl *Tile) int {
	for i, x := range ts {
		if x == tl {
			return i
		}
	}
	return -1
}

func checkInvariants(t *testing.T, st *fuzzState, seed int64, step int) {
	t.Helper()
	used := make(map[topology.DeviceID]int64)
	onList := make(map[*replica]bool)
	for d := range st.c.lru {
		l := &st.c.lru[d]
		var prev *replica
		for r := l.head; r != nil; prev, r = r, r.next {
			if r.prev != prev {
				t.Fatalf("seed %d step %d: GPU %d eviction list has a broken back link", seed, step, d)
			}
			if prev != nil && prev.stamp >= r.stamp {
				t.Fatalf("seed %d step %d: GPU %d eviction list stamps %d then %d, not increasing",
					seed, step, d, prev.stamp, r.stamp)
			}
			if r.tile == nil || r.tile.rep(topology.DeviceID(d)) != r {
				t.Fatalf("seed %d step %d: GPU %d eviction list holds a replica not resident there", seed, step, d)
			}
			if r.dirty {
				t.Fatalf("seed %d step %d: GPU %d eviction list holds dirty %v", seed, step, d, r.tile.Key)
			}
			onList[r] = true
		}
		if l.tail != prev {
			t.Fatalf("seed %d step %d: GPU %d eviction list tail is not its last node", seed, step, d)
		}
	}
	dirtyOn := make([]int64, len(st.c.lru))
	for i, tl := range st.tiles {
		var valid, inflight uint64
		for d, inf := range tl.inflight {
			if inf != nil {
				inflight |= 1 << uint(d)
			}
		}
		if inflight != tl.inflightMask {
			t.Fatalf("seed %d step %d: tile %d in-flight mask %b, records say %b",
				seed, step, i, tl.inflightMask, inflight)
		}
		dirty := 0
		for di, r := range tl.reps {
			if r == nil {
				continue
			}
			d := topology.DeviceID(di)
			if r.tile != tl {
				t.Fatalf("seed %d step %d: tile %d replica on %d points at another tile", seed, step, i, d)
			}
			if r.valid {
				valid |= 1 << uint(d)
			}
			if r.dirty == onList[r] {
				t.Fatalf("seed %d step %d: tile %d replica on %d: dirty %v but on eviction list %v",
					seed, step, i, d, r.dirty, onList[r])
			}
			if r.dirty {
				dirtyOn[d]++
			}
			used[d] += tl.Bytes
			if r.dirty {
				if !r.valid {
					t.Fatalf("seed %d step %d: tile %d dirty but invalid on %d", seed, step, i, d)
				}
				dirty++
			}
		}
		if valid != tl.validMask {
			t.Fatalf("seed %d step %d: tile %d valid mask %b, replicas say %b",
				seed, step, i, tl.validMask, valid)
		}
		if dirty > 1 {
			t.Fatalf("seed %d step %d: tile %d has %d dirty replicas", seed, step, i, dirty)
		}
		if !tl.HostValid() && dirty != 1 {
			t.Fatalf("seed %d step %d: tile %d host-invalid with %d dirty replicas", seed, step, i, dirty)
		}
	}
	for d, n := range dirtyOn {
		if st.c.dirtyN[d] != n {
			t.Fatalf("seed %d step %d: GPU %d dirty count %d, %d dirty replicas resident",
				seed, step, d, st.c.dirtyN[d], n)
		}
	}
	for d, g := range st.plat.GPUs {
		if g.Mem.Used() != used[topology.DeviceID(d)] {
			t.Fatalf("seed %d step %d: GPU %d pool usage %d != replica sum %d",
				seed, step, d, g.Mem.Used(), used[topology.DeviceID(d)])
		}
	}
}
