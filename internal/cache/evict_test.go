package cache

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// refKey names one replica of the reference model: tile index and device.
type refKey struct {
	tile int
	dev  topology.DeviceID
}

// refRep is the reference model's view of one resident replica.
type refRep struct {
	valid, dirty bool
	pins         int // every pin: transfer sources, flushes and userPins
	userPins     int
}

// refModel is the victim-order reference: each device keeps one recency
// list of every resident replica, dirty ones included, and eviction scans
// it linearly from the front, dropping each replica that is clean,
// unpinned and not under transfer until the new tile fits. It is the
// eviction scan the cache had before its eviction list dropped dirty
// replicas, and the cache must choose the same victims.
type refModel struct {
	capTiles   int
	lists      [][]int // per device: tile indexes, least recently used first
	reps       map[refKey]*refRep
	inflight   map[refKey]bool // under-transfer records; true once started
	hostValid  []bool
	flushing   []bool
	evictions  int64
	dirtyTotal int64 // dirty replicas resident on the device, summed over eviction passes
}

func newRefModel(devs, tiles, capTiles int) *refModel {
	m := &refModel{
		capTiles:  capTiles,
		lists:     make([][]int, devs),
		reps:      make(map[refKey]*refRep),
		inflight:  make(map[refKey]bool),
		hostValid: make([]bool, tiles),
		flushing:  make([]bool, tiles),
	}
	for i := range m.hostValid {
		m.hostValid[i] = true
	}
	return m
}

func (m *refModel) touch(i int, d topology.DeviceID) {
	if k := slices.Index(m.lists[d], i); k >= 0 {
		m.lists[d] = append(slices.Delete(m.lists[d], k, k+1), i)
	}
}

func (m *refModel) drop(i int, d topology.DeviceID) {
	m.lists[d] = slices.DeleteFunc(m.lists[d], func(x int) bool { return x == i })
	delete(m.reps, refKey{i, d})
}

// alloc makes room for tile i on d, evicting by the linear scan; false
// means nothing evictable was left.
func (m *refModel) alloc(i int, d topology.DeviceID) bool {
	if len(m.lists[d]) >= m.capTiles {
		for _, x := range m.lists[d] {
			if m.reps[refKey{x, d}].dirty {
				m.dirtyTotal++
			}
		}
		for _, x := range slices.Clone(m.lists[d]) {
			if len(m.lists[d]) < m.capTiles {
				break
			}
			r := m.reps[refKey{x, d}]
			if _, infl := m.inflight[refKey{x, d}]; !r.dirty && r.pins == 0 && !infl {
				m.drop(x, d)
				m.evictions++
			}
		}
	}
	if len(m.lists[d]) >= m.capTiles {
		return false
	}
	m.lists[d] = append(m.lists[d], i)
	m.reps[refKey{i, d}] = &refRep{}
	return true
}

// markDirty is the single-writer transition: every other replica drops.
func (m *refModel) markDirty(i int, d topology.DeviceID) {
	for o := range m.lists {
		if od := topology.DeviceID(o); od != d {
			if _, ok := m.reps[refKey{i, od}]; ok {
				m.drop(i, od)
			}
		}
	}
	m.reps[refKey{i, d}].dirty = true
	m.hostValid[i] = false
}

// canWrite reports whether a write of tile i on d may invalidate the
// other replicas: none of them pinned or under transfer.
func (m *refModel) canWrite(i int, d topology.DeviceID) bool {
	if m.flushing[i] {
		return false
	}
	for o := range m.lists {
		od := topology.DeviceID(o)
		if od == d {
			continue
		}
		if r, ok := m.reps[refKey{i, od}]; ok {
			if _, infl := m.inflight[refKey{i, od}]; infl || r.pins > 0 {
				return false
			}
		}
	}
	return true
}

// TestEvictionVictimOrder drives seeded random sequences of allocation,
// touch, pin/unpin, write, flush, in-flight marks and transfers against
// small device pools, and checks after every step that the cache evicted
// exactly the replicas the linear-scan reference model evicts, and that
// each eviction list is the model's recency list without its dirty
// replicas.
func TestEvictionVictimOrder(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		victimOrderOnce(t, seed)
	}
}

func victimOrderOnce(t *testing.T, seed int64) {
	t.Helper()
	const (
		nDevs    = 3
		nTiles   = 10
		capTiles = 4
		steps    = 3000
		nb       = 64
	)
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	tileBytes := int64(nb * nb * matrix.WordSize)
	for d := 0; d < nDevs; d++ {
		plat.GPUs[d].Mem = device.NewMemPool(tileBytes*capTiles + 16)
	}
	c := New(plat, false)
	c.Counters = policy.NewCounters(metrics.NewRegistry())
	tiles := make([]*Tile, nTiles)
	for i := range tiles {
		tiles[i] = c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(nb, nb))
	}
	m := newRefModel(nDevs, nTiles, capTiles)
	var ops [10]int

	for step := 0; step < steps; step++ {
		i := rng.Intn(nTiles)
		tl := tiles[i]
		d := topology.DeviceID(rng.Intn(nDevs))
		k := refKey{i, d}
		r, resident := m.reps[k]
		_, infl := m.inflight[k]
		op := rng.Intn(10)
		switch op {
		case 0, 1: // raw allocation (pressure when the pool is full)
			if resident || infl {
				continue
			}
			ok := m.alloc(i, d)
			if err := c.AllocRaw(tl, d); (err == nil) != ok {
				t.Fatalf("seed %d step %d: AllocRaw(%d@%d) err %v, model ok %v", seed, step, i, d, err, ok)
			}
			if ok {
				m.reps[k].valid = true
			}
		case 2: // transfer from the host or a valid peer
			if resident || infl && m.inflight[k] {
				continue
			}
			src := topology.Host
			for o := 0; o < nDevs; o++ {
				if or, ok := m.reps[refKey{i, topology.DeviceID(o)}]; ok && or.valid && rng.Intn(2) == 0 {
					src = topology.DeviceID(o)
				}
			}
			if src == topology.Host && !m.hostValid[i] {
				continue
			}
			ok := m.alloc(i, d)
			done := func() {
				m.reps[k].valid = true
				delete(m.inflight, k)
				m.touch(i, d)
				if src != topology.Host {
					m.reps[refKey{i, src}].pins--
				}
			}
			if err := c.StartTransfer(tl, src, d, done); (err == nil) != ok {
				t.Fatalf("seed %d step %d: StartTransfer(%d %d->%d) err %v, model ok %v", seed, step, i, src, d, err, ok)
			}
			if ok {
				m.inflight[k] = true
				if src != topology.Host {
					m.reps[refKey{i, src}].pins++
				}
			}
		case 3: // touch
			if !resident {
				continue
			}
			c.Touch(tl, d)
			m.touch(i, d)
		case 4: // user pin / unpin
			if !resident || !r.valid {
				continue
			}
			if r.userPins > 0 && rng.Intn(2) == 0 {
				c.Unpin(tl, d)
				r.userPins--
				r.pins--
			} else {
				c.Pin(tl, d)
				r.userPins++
				r.pins++
			}
		case 5: // write: a valid replica, or a fresh write-only allocation
			if infl || !m.canWrite(i, d) {
				continue
			}
			switch {
			case resident && r.valid:
				c.MarkDirty(tl, d)
				m.markDirty(i, d)
			case resident:
				continue
			default:
				ok := m.alloc(i, d)
				if err := c.AllocForWrite(tl, d); (err == nil) != ok {
					t.Fatalf("seed %d step %d: AllocForWrite(%d@%d) err %v, model ok %v", seed, step, i, d, err, ok)
				}
				if ok {
					m.reps[k].valid = true
					m.markDirty(i, d)
				}
			}
		case 6: // flush the dirty replica back to the host
			if m.hostValid[i] || m.flushing[i] {
				continue
			}
			dd := tl.DirtyOn()
			dk := refKey{i, dd}
			if dr, ok := m.reps[dk]; !ok || !dr.dirty {
				t.Fatalf("seed %d step %d: tile %d dirty on %d, model disagrees", seed, step, i, dd)
			}
			m.flushing[i] = true
			m.reps[dk].pins++
			c.FlushToHost(tl, func() {
				dr := m.reps[dk]
				dr.pins--
				dr.dirty = false
				m.hostValid[i] = true
				m.flushing[i] = false
			})
		case 7: // synthetic in-flight mark, or its cancellation
			switch {
			case infl && !m.inflight[k]:
				c.CancelInflight(tl, d, errTestCancel)
				delete(m.inflight, k)
			case !infl && !resident:
				c.MarkInflight(tl, d)
				m.inflight[k] = false
			default:
				continue
			}
		default: // advance virtual time; completions update the model
			if rng.Intn(4) == 0 {
				eng.Run()
			} else {
				eng.RunUntil(eng.Now() + sim.Time(rng.Float64()*2e-5))
			}
		}
		ops[op]++
		checkAgainstModel(t, c, tiles, m, seed, step)
	}
	for op, n := range ops {
		if n == 0 {
			t.Fatalf("seed %d: op %d never ran", seed, op)
		}
	}
	if m.evictions == 0 {
		t.Fatalf("seed %d: no evictions exercised", seed)
	}
}

var errTestCancel = errors.New("chain cancelled")

func checkAgainstModel(t *testing.T, c *Cache, tiles []*Tile, m *refModel, seed int64, step int) {
	t.Helper()
	index := make(map[*Tile]int, len(tiles))
	for i, tl := range tiles {
		index[tl] = i
	}
	for d := range m.lists {
		dev := topology.DeviceID(d)
		for i, tl := range tiles {
			_, want := m.reps[refKey{i, dev}]
			if got := tl.rep(dev) != nil; got != want {
				t.Fatalf("seed %d step %d: tile %d resident on %d = %v, reference says %v (lists %v)",
					seed, step, i, dev, got, want, m.lists)
			}
		}
		var want, got []int
		for _, i := range m.lists[d] {
			if !m.reps[refKey{i, dev}].dirty {
				want = append(want, i)
			}
		}
		for r := c.lru[d].head; r != nil; r = r.next {
			got = append(got, index[r.tile])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: GPU %d eviction list %v, reference order %v", seed, step, d, got, want)
		}
	}
	if got := c.Stats().Evictions; got != m.evictions {
		t.Fatalf("seed %d step %d: %d evictions, reference %d", seed, step, got, m.evictions)
	}
	if got := c.Counters.EvictDirtySkipped.Value(); got != m.dirtyTotal {
		t.Fatalf("seed %d step %d: EvictDirtySkipped %d, reference %d", seed, step, got, m.dirtyTotal)
	}
}
