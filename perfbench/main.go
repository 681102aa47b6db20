// Command perfbench measures the host cost of the simulator: the CPU time,
// wall-clock time and memory it takes to produce its virtual-time results.
// Each run executes one workload, checks that every simulated output is
// identical to its reference, and prints one JSON result object as the last
// line of standard output.
//
//	perfbench -workload paper-sweep -seed 1 -seconds 5 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 the
// run repeats one iteration with spans, counters and a CPU profile on, runs
// the per-layer drivers, and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds the workload's inputs; setup_s is
// the median of their CPU times, so one slow build (a GC) does not move it.
const setupReps = 9

// heldOutSeed is reserved for confirming a claimed gain: tune and measure
// with other seeds, then check the claim once on this one.
const heldOutSeed = 7919

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root: results_quick.txt lives here
	out      string // directory for result records, spans and profiles
	record   bool   // rewrite the recorded references instead of checking
}

// iteration is the outcome of one timed pass over a workload.
type iteration struct {
	wall       time.Duration // host time of the timed part only
	cpu        time.Duration // process CPU time (user+system) of the timed part
	allocBytes uint64        // bytes allocated during the timed part
	attempted  int
	failed     int
	ops        int // operations completed, for ops_per_cpu_s
}

// workload is one benchmark input set. setup runs setupReps times and the
// state of the last run is kept; iterate runs the timed part and checks its
// outputs, and may reuse or rebuild state between calls.
type workload interface {
	setup() error
	iterate(tr *tracer) (iteration, error)
	// layerMetrics adds the counters read after the traced iteration.
	layerMetrics(m metricSet, tr *tracer)
	// workers reports the goroutine counts the workload runs with.
	workers() map[string]int
}

var workloadNames = []string{"paper-sweep", "bign-stream", "serve-replay", "functional"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "paper-sweep":
		return &paperSweep{root: cfg.root}, nil
	case "bign-stream":
		return &bignStream{}, nil
	case "serve-replay":
		return &serveReplay{seed: cfg.seed}, nil
	case "functional":
		return &functional{seed: cfg.seed, n: funcN}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.record {
		if err := recordRefs(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (serve-replay and functional)")
	fs.IntVar(&cfg.seconds, "seconds", 10, "minimum host seconds of timed iterations")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&cfg.root, "root", "..", "repository root")
	fs.StringVar(&cfg.out, "out", "", "directory for records, spans and profiles (default <root>/.bench_build/results)")
	fs.BoolVar(&cfg.record, "record", false, "write the bign-stream/serve-replay references into refs/ and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	cfg.trace = trace == 1
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build", "results")
	}
	return cfg, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}

	setups := make([]float64, setupReps)
	for i := range setups {
		c0 := cpuTime()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = (cpuTime() - c0).Seconds()
	}

	res := &result{Metrics: metricSet{}}
	var iters []iteration
	add := func(it iteration) {
		iters = append(iters, it)
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	if !cfg.trace {
		budget := time.Duration(cfg.seconds) * time.Second
		start := time.Now()
		for len(iters) == 0 || time.Since(start) < budget {
			it, err := w.iterate(nil)
			if err != nil {
				return nil, err
			}
			add(it)
		}
		endToEnd(res.Metrics, setups, iters)
	} else {
		plain, err := w.iterate(nil)
		if err != nil {
			return nil, err
		}
		add(plain)
		traced, err := tracedIteration(cfg, w)
		if err != nil {
			return nil, err
		}
		add(traced.it)
		for k, v := range traced.metrics {
			res.Metrics[k] = v
		}
		res.Metrics.set("host.wall_s", plain.wall.Seconds(), "s")
		res.Metrics.set("trace_overhead_frac", traced.it.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	}
	res.Correct = res.Failed == 0

	rec := runRecord(cfg, w, setups, iters, res)
	recLine, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(recLine))
	name := fmt.Sprintf("%s.trace%d.seed%d.json", cfg.workload, b2i(cfg.trace), cfg.seed)
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(recLine, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd derives the untraced metrics: medians over iterations, so a
// single disturbed iteration does not move them. Times are process CPU
// seconds: on a shared host, wall time also counts the time the host gives
// the CPU to others, which swung by up to 2× from one set of runs to the
// next. Every iteration's wall time is kept in the run record.
func endToEnd(m metricSet, setups []float64, iters []iteration) {
	var cpus, allocs, rates []float64
	for _, it := range iters {
		s := it.cpu.Seconds()
		cpus = append(cpus, s)
		allocs = append(allocs, float64(it.allocBytes)/1e6)
		rates = append(rates, float64(it.ops)/s)
	}
	m.set("cpu_s", median(cpus), "s")
	m.set("setup_s", median(setups), "s")
	m.set("alloc_mb", median(allocs), "MB")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("ops_per_cpu_s", median(rates), "1/s")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// measure runs fn and returns its host duration, the CPU time the process
// spent in it and the bytes it allocated. A GC first gives every timed part
// the same starting heap, whatever ran before it.
func measure(fn func()) iteration {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	it := iteration{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&after)
	it.allocBytes = after.TotalAlloc - before.TotalAlloc
	return it
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// record is the run description written next to the results.
type record struct {
	Workload    string         `json:"workload"`
	Trace       bool           `json:"trace"`
	Seed        int64          `json:"seed"`
	HeldOutSeed int64          `json:"held_out_seed"`
	Seconds     int            `json:"seconds"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Workers     map[string]int `json:"workers"`
	SetupS      []float64      `json:"setup_cpu_s"`
	WallS       []float64      `json:"iteration_wall_s"`
	CPUS        []float64      `json:"iteration_cpu_s"`
	AllocMB     []float64      `json:"iteration_alloc_mb"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	Metrics     metricSet      `json:"metrics"`
}

func runRecord(cfg config, w workload, setups []float64, iters []iteration, res *result) record {
	r := record{
		Workload:    cfg.workload,
		Trace:       cfg.trace,
		Seed:        cfg.seed,
		HeldOutSeed: heldOutSeed,
		Seconds:     cfg.seconds,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Workers:     w.workers(),
		SetupS:      setups,
		Attempted:   res.Attempted,
		Failed:      res.Failed,
		Metrics:     res.Metrics,
	}
	for _, it := range iters {
		r.WallS = append(r.WallS, it.wall.Seconds())
		r.CPUS = append(r.CPUS, it.cpu.Seconds())
		r.AllocMB = append(r.AllocMB, float64(it.allocBytes)/1e6)
	}
	return r
}

// commit reports the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
