package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory and the CPU profiles of the traced
// iteration. A nil *tracer is valid and records nothing, so the untraced
// iterations run the same code without its cost.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int // stack of open span ids
	dir      string
	prefix   string
	profiles []string // CPU profile files, in order
}

func newTracer(dir, prefix string) *tracer {
	return &tracer{t0: time.Now(), dir: dir, prefix: prefix}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name, Start: time.Since(t.t0).Seconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	defer func() {
		t.open = t.open[:len(t.open)-1]
		t.spans[s.ID-1].End = time.Since(t.t0).Seconds()
	}()
	fn()
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// profile runs fn under a CPU profile written to <prefix>.<label>.cpu.pprof.
func (t *tracer) profile(label string, fn func()) error {
	if t == nil {
		fn()
		return nil
	}
	path := filepath.Join(t.dir, fmt.Sprintf("%s.%s.cpu.pprof", t.prefix, label))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	t.profiles = append(t.profiles, path)
	return nil
}

func (t *tracer) writeSpans() error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dir, t.prefix+".spans.json"), append(b, '\n'), 0o644)
}

// counters are the runtime, cache and policy counts of one traced
// iteration, from whichever public source the workload has.
type counters struct {
	tasks, windowStalls, tasksLiveMax, steals           float64
	hits, misses, evictions, dirtySkipped, inflightWait float64
	h2dBytes, p2pBytes                                  float64
	srcHost, srcNVLink2, srcNVLink1, srcPCIeP2P         float64
	chainTaken, chainMissed                             float64
	events                                              float64 // 0 when the engine is not reachable
}

// setRuntimeCounters publishes c; busy is the host time the counted work
// took, for the per-task and per-event costs.
func setRuntimeCounters(m metricSet, c counters, busy float64) {
	m.set("xkrt.tasks", c.tasks, "count")
	if c.tasks > 0 {
		m.set("xkrt.ns_per_task", busy/c.tasks*1e9, "ns")
	}
	m.set("xkrt.window_stalls", c.windowStalls, "count")
	m.set("xkrt.tasks_live_max", c.tasksLiveMax, "count")
	m.set("xkrt.steals", c.steals, "count")
	m.set("cache.hits", c.hits, "count")
	m.set("cache.misses", c.misses, "count")
	m.set("cache.evictions", c.evictions, "count")
	m.set("cache.evict_dirty_skipped", c.dirtySkipped, "count")
	m.set("cache.inflight_waits", c.inflightWait, "count")
	m.set("cache.h2d_mb", c.h2dBytes/1e6, "MB")
	m.set("cache.p2p_mb", c.p2pBytes/1e6, "MB")
	m.set("policy.src_host", c.srcHost, "count")
	m.set("policy.src_nvlink2", c.srcNVLink2, "count")
	m.set("policy.src_nvlink1", c.srcNVLink1, "count")
	m.set("policy.src_pcie_p2p", c.srcPCIeP2P, "count")
	m.set("policy.chain_taken", c.chainTaken, "count")
	m.set("policy.chain_missed", c.chainMissed, "count")
	m.set("sim.events", c.events, "count")
	if c.events > 0 {
		m.set("sim.ns_per_event", busy/c.events*1e9, "ns")
	}
}

// gcCycles reads the number of completed GC cycles.
func gcCycles() float64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gcRoots are the runtime functions every GC work item runs under: the
// background mark workers, mark assists charged to allocating goroutines,
// and background sweeping and scavenging. No stack holds two of them.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

type tracedResult struct {
	it      iteration
	metrics metricSet
}

// tracedIteration runs one iteration with spans, counters and CPU profiles
// on, then the per-layer drivers, and returns every per-layer metric.
func tracedIteration(cfg config, w workload) (*tracedResult, error) {
	tr := newTracer(cfg.out, cfg.workload)
	cycles := gcCycles()
	it, err := w.iterate(tr)
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	m.set("gc.cycles", gcCycles()-cycles, "count")
	w.layerMetrics(m, tr)

	prof, err := readProfiles(tr.profiles)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		m.set(l+".cpu_frac", prof.layerFrac(l), "ratio")
	}
	var gc float64
	for _, fn := range gcRoots {
		gc += prof.cumFrac(fn)
	}
	m.set("gc.cpu_frac", gc, "ratio")
	m.set("cache.valid_gpus_cpu_frac", prof.cumFrac("xkblas/internal/cache.(*Tile).ValidGPUs"), "ratio")
	table := filepath.Join(cfg.out, cfg.workload+".cpu_by_package.txt")
	if err := os.WriteFile(table, []byte(prof.table()), 0o644); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(); err != nil {
		return nil, err
	}

	runDrivers(m)
	// A layer this workload does not reach reports 0.
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m.set(pl.name, 0, pl.unit)
		}
	}
	return &tracedResult{it: it, metrics: m}, nil
}
