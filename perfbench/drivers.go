package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/device"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// Per-layer drivers: small loops over one layer's public functions, run
// only in the traced run, each reporting host nanoseconds per call. They
// isolate a layer's cost from the workloads that mix them.

// sink keeps driver results alive so the compiler cannot drop the calls.
var sink int

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func runDrivers(m metricSet) {
	for _, k := range []int{1, 4, 8} {
		m.set(fmt.Sprintf("cache.valid_gpus_ns_r%d", k), driveValidGPUs(k), "ns")
	}
	m.set("cache.evict_ns", driveEvict(), "ns")
	m.set("topology.route_ns", driveRoute(), "ns")
	m.set("sim.schedule_run_ns", driveEngine(), "ns")
	m.set("xkrt.submit_retire_ns", driveSubmitRetire(), "ns")
	m.set("policy.select_source_ns", driveSelectSource(), "ns")
	m.set("hostblas.gemm_gflops_1t", driveGemm(1), "GFlop/s")
	m.set("hostblas.gemm_gflops_nproc", driveGemm(runtime.NumCPU()), "GFlop/s")
}

// timingCache builds a timing-mode cache on a fresh DGX-1.
func timingCache() *cache.Cache {
	eng := sim.NewEngine()
	return cache.New(device.NewPlatform(eng, topology.DGX1()), false)
}

// driveValidGPUs queries a tile that has a valid replica on k GPUs.
func driveValidGPUs(k int) float64 {
	c := timingCache()
	t := c.NewTile(cache.TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(256, 256))
	for d := 0; d < k; d++ {
		if err := c.AllocRaw(t, topology.DeviceID(d)); err != nil {
			panic(err)
		}
	}
	return perCall(200_000, func(int) { sink += len(t.ValidGPUs()) })
}

// driveEvict allocates into a full GPU pool whose least recently used
// replicas are 90% dirty: every allocation evicts one clean replica after
// walking past the dirty ones.
func driveEvict() float64 {
	c := timingCache()
	const nb = 2048
	id := c.NewMatrixID()
	next := 0
	tile := func() *cache.Tile {
		next++
		return c.NewTile(cache.TileKey{Mat: id, I: next}, matrix.NewShape(nb, nb))
	}
	pool := c.Plat.GPU(0).Mem
	perTile := int64(nb) * nb * matrix.WordSize
	slots := int(pool.Available() / perTile)
	dirty := slots * 9 / 10
	for i := 0; i < slots; i++ {
		t := tile()
		var err error
		if i < dirty {
			err = c.AllocForWrite(t, 0)
		} else {
			err = c.AllocRaw(t, 0)
		}
		if err != nil {
			panic(err)
		}
	}
	const n = 2000
	fresh := make([]*cache.Tile, n)
	for i := range fresh {
		fresh[i] = tile()
	}
	return perCall(n, func(i int) {
		if err := c.AllocRaw(fresh[i], 0); err != nil {
			panic(err)
		}
	})
}

// driveRoute resolves every ordered pair of distinct devices, host
// included, on the DGX-1.
func driveRoute() float64 {
	p := topology.DGX1()
	devs := append(p.GPUs(), topology.Host)
	var pairs [][2]topology.DeviceID
	for _, s := range devs {
		for _, d := range devs {
			if s != d {
				pairs = append(pairs, [2]topology.DeviceID{s, d})
			}
		}
	}
	return perCall(200_000, func(i int) {
		pr := pairs[i%len(pairs)]
		if p.Route(pr[0], pr[1]) != nil {
			sink++
		}
	})
}

// driveEngine schedules events at seeded random times and runs them;
// the cost per event covers At and its share of Run.
func driveEngine() float64 {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(rng.Float64())
	}
	eng := sim.NewEngine()
	fn := func() { sink++ }
	t0 := time.Now()
	for _, t := range times {
		eng.At(t, fn)
	}
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / n
}

// driveSubmitRetire submits waves of 64 timing-mode tasks over an 8×8 tile
// grid, each depending on the previous wave, and runs them to completion.
func driveSubmitRetire() float64 {
	const grid, nb, waves = 8, 256, 200
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	rt := xkrt.New(eng, plat, false, xkrt.DefaultOptions())
	mat := rt.Register(matrix.NewShape(grid*nb, grid*nb), nb)
	spec := xkrt.KernelSpec{Routine: blasops.Gemm, M: nb, N: nb, K: nb, Flops: 2 * nb * nb * nb}
	wave := func() {
		for i := 0; i < grid; i++ {
			for j := 0; j < grid; j++ {
				rt.Submit("wave", spec, 0, xkrt.RW(mat.Tile(i, j)), xkrt.R(mat.Tile((i+1)%grid, j)))
			}
		}
		rt.Barrier()
	}
	wave() // populate replicas, queues and pools
	return perCall(waves, func(int) { wave() }) / (grid * grid)
}

// driveSelectSource picks transfer sources with the default XKBlas
// selector for tiles held by 0 to 4 GPUs, towards every other GPU.
func driveSelectSource() float64 {
	c := timingCache()
	topo := c.Plat.Topo
	sel := xkrt.New(sim.NewEngine(), c.Plat, false, xkrt.DefaultOptions()).Policy().Source
	type query struct {
		t   *cache.Tile
		dst topology.DeviceID
	}
	var qs []query
	id := c.NewMatrixID()
	for k := 0; k <= 4; k++ {
		t := c.NewTile(cache.TileKey{Mat: id, I: k}, matrix.NewShape(256, 256))
		for d := 0; d < k; d++ {
			if err := c.AllocRaw(t, topology.DeviceID(2*d)); err != nil {
				panic(err)
			}
		}
		for _, dst := range topo.GPUs() {
			if !t.ValidOn(dst) {
				qs = append(qs, query{t, dst})
			}
		}
	}
	return perCall(200_000, func(i int) {
		q := qs[i%len(qs)]
		if src, _, ok := policy.SelectSource(sel, topo, q.t, q.dst, nil); ok {
			sink += int(src)
		}
	})
}

// driveGemm runs the host GEMM kernel on nb=256 operands with the given
// number of goroutines.
func driveGemm(workers int) float64 {
	const nb, reps = 256, 20
	prev := hostblas.Parallelism()
	hostblas.SetParallelism(workers)
	defer hostblas.SetParallelism(prev)
	rng := rand.New(rand.NewSource(1))
	a, b, c := matrix.New(nb, nb), matrix.New(nb, nb), matrix.New(nb, nb)
	a.FillRandom(rng)
	b.FillRandom(rng)
	ns := perCall(reps, func(int) { hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, a, b, 0, c) })
	return blasops.FlopsSquare(blasops.Gemm, nb) / ns
}
