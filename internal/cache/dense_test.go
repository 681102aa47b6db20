package cache

import (
	"fmt"
	"testing"

	"xkblas/internal/matrix"
	"xkblas/internal/topology"
)

// TestReplicaQueriesAllocationFree pins the cost of the hot replica
// queries: the mask reads and the append form into a reused buffer
// allocate nothing, and the device lists allocate at most their one result
// slice.
func TestReplicaQueriesAllocationFree(t *testing.T) {
	_, c := newTestCache(false)
	tl := c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))
	for _, d := range []topology.DeviceID{1, 3, 4, 6} {
		if err := c.AllocRaw(tl, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StartTransfer(tl, topology.Host, 5, nil); err != nil {
		t.Fatal(err)
	}
	c.MarkInflight(tl, 7)
	var sink int
	buf := make([]topology.DeviceID, 0, topology.MaxGPUs)
	for _, q := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"ValidOn", 0, func() {
			if tl.ValidOn(3) {
				sink++
			}
		}},
		{"InflightTo", 0, func() {
			if tl.InflightTo(5) {
				sink++
			}
		}},
		{"DirtyOn", 0, func() { sink += int(tl.DirtyOn()) }},
		{"FirstValidGPU", 0, func() { sink += int(tl.FirstValidGPU()) }},
		{"AppendValidGPUs", 0, func() { sink += len(tl.AppendValidGPUs(buf[:0])) }},
		{"ValidGPUs", 1, func() { sink += len(tl.ValidGPUs()) }},
		{"InflightDsts", 1, func() { sink += len(tl.InflightDsts()) }},
	} {
		if got := testing.AllocsPerRun(100, q.fn); got > q.max {
			t.Errorf("%s: %g allocs per call, want at most %g", q.name, got, q.max)
		}
	}
	if got := tl.ValidGPUs(); fmt.Sprint(got) != "[1 3 4 6]" {
		t.Fatalf("ValidGPUs = %v", got)
	}
	if got := tl.AppendValidGPUs(buf[:0]); fmt.Sprint(got) != "[1 3 4 6]" {
		t.Fatalf("AppendValidGPUs = %v", got)
	}
	if got := tl.FirstValidGPU(); got != 1 {
		t.Fatalf("FirstValidGPU = %d, want 1", got)
	}
	if got := tl.InflightDsts(); fmt.Sprint(got) != "[5 7]" {
		t.Fatalf("InflightDsts = %v", got)
	}
	if sink == 0 {
		t.Fatal("queries returned nothing")
	}
}

// BenchmarkEvictDirtyHeavy allocates into a full GPU pool whose replicas
// are 90% dirty: every allocation evicts the least recently used clean
// replica. The eviction list holds no dirty replicas, so the cost does not
// grow with their number.
func BenchmarkEvictDirtyHeavy(b *testing.B) {
	_, c := newTestCache(false)
	const nb = 2048
	id := c.NewMatrixID()
	next := 0
	tile := func() *Tile {
		next++
		return c.NewTile(TileKey{Mat: id, I: next}, matrix.NewShape(nb, nb))
	}
	pool := c.Plat.GPU(0).Mem
	slots := int(pool.Available() / (nb * nb * matrix.WordSize))
	dirty := slots * 9 / 10
	for i := 0; i < slots; i++ {
		alloc := c.AllocRaw
		if i < dirty {
			alloc = c.AllocForWrite
		}
		if err := alloc(tile(), 0); err != nil {
			b.Fatal(err)
		}
	}
	// Each allocation evicts the clean replica allocated slots-dirty
	// allocations earlier, so a ring twice that long never finds its next
	// tile resident.
	ring := make([]*Tile, 2*(slots-dirty))
	for i := range ring {
		ring[i] = tile()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AllocRaw(ring[i%len(ring)], 0); err != nil {
			b.Fatal(err)
		}
	}
	if got := c.Stats().Evictions; got != int64(b.N) {
		b.Fatalf("%d evictions for %d allocations", got, b.N)
	}
}

// BenchmarkValidGPUs lists the holders of a tile valid on 1, 4 and 8 GPUs.
func BenchmarkValidGPUs(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("replicas=%d", k), func(b *testing.B) {
			_, c := newTestCache(false)
			tl := c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(256, 256))
			for d := 0; d < k; d++ {
				if err := c.AllocRaw(tl, topology.DeviceID(d)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(tl.ValidGPUs())
			}
			if n != k*b.N {
				b.Fatalf("listed %d holders, want %d", n, k*b.N)
			}
		})
	}
}
