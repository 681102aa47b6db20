package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xkblas/internal/baseline"
	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/metrics"
	"xkblas/internal/topology"
)

// sweepWorkers is the paper-sweep worker count. With two workers on a
// two-CPU host the sweep is faster but its wall time and peak heap swing
// with whatever else the host runs; one worker holds the bounds.
const sweepWorkers = 1

// paperSweep runs Fig. 3, Table II and Fig. 4 at quick scale on the DGX-1
// and compares each with its section of results_quick.txt, byte for byte.
// Many medium simulations with no memory pressure: the cost sits in runtime
// callbacks, replica queries, the DMDAS policy and GC, and 42 of its 96
// points repeat one an earlier experiment measured.
type paperSweep struct {
	root string
	ref  map[string][]byte // section name → expected experiment output

	// Filled by the traced iteration.
	points, repeats int
	reg             *metrics.Registry
}

// sweepSections are the experiments of the workload, in run order.
var sweepSections = []string{"FIG3", "TABLE2", "FIG4"}

func (p *paperSweep) workers() map[string]int {
	return map[string]int{"sweep": sweepWorkers, "sim": 1}
}

func (p *paperSweep) setup() error {
	raw, err := os.ReadFile(filepath.Join(p.root, "results_quick.txt"))
	if err != nil {
		return err
	}
	ref, err := splitSections(raw)
	if err != nil {
		return err
	}
	for _, s := range sweepSections {
		if _, ok := ref[s]; !ok {
			return fmt.Errorf("results_quick.txt: no %s section", s)
		}
	}
	p.ref = ref
	// The sweep builds one platform and handle per simulation; building one
	// here keeps platform-construction cost visible in setup_s.
	core.NewHandle(core.Config{Platform: topology.DGX1(), SimWorkers: 1})
	return nil
}

// splitSections cuts xkbench -exp all output into its "==== NAME ===="
// sections. Each body is the experiment's output, without the blank line
// xkbench writes after it.
func splitSections(raw []byte) (map[string][]byte, error) {
	out := map[string][]byte{}
	name := ""
	var body []byte
	flush := func() {
		if name != "" {
			out[name] = bytes.TrimSuffix(body, []byte("\n"))
		}
	}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		s := strings.TrimSuffix(string(line), "\n")
		if strings.HasPrefix(s, "==== ") && strings.HasSuffix(s, " ====") {
			flush()
			name = strings.TrimSuffix(strings.TrimPrefix(s, "==== "), " ====")
			if _, dup := out[name]; dup {
				return nil, fmt.Errorf("duplicate section %s", name)
			}
			body = nil
			continue
		}
		body = append(body, line...)
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("no sections")
	}
	return out, nil
}

// compareLines returns the number of rows compared (the longer of the two
// outputs) and how many differ; a row includes its line ending, so a
// missing final newline counts too.
func compareLines(want, got []byte) (rows, bad int) {
	w, g := splitRows(want), splitRows(got)
	rows = max(len(w), len(g))
	for i := 0; i < rows; i++ {
		if i >= len(w) || i >= len(g) || !bytes.Equal(w[i], g[i]) {
			bad++
		}
	}
	return rows, bad
}

func splitRows(b []byte) [][]byte {
	rows := bytes.SplitAfter(b, []byte("\n"))
	if len(rows[len(rows)-1]) == 0 {
		rows = rows[:len(rows)-1]
	}
	return rows
}

func (p *paperSweep) iterate(tr *tracer) (iteration, error) {
	bench.DefaultParallelism = sweepWorkers
	bench.SimWorkers = 1
	if tr != nil {
		p.reg = metrics.NewRegistry()
		bench.MetricsEnabled, bench.GlobalMetrics = true, p.reg
		defer func() { bench.MetricsEnabled, bench.GlobalMetrics = false, nil }()
	}
	bufs := map[string]*bytes.Buffer{}
	for _, s := range sweepSections {
		bufs[s] = new(bytes.Buffer)
	}
	var fig3, fig4 []bench.Point
	var perr error
	it := measure(func() {
		perr = tr.profile("sweep", func() {
			tr.do("bench.fig3", func() { fig3 = bench.Fig3(bufs["FIG3"], true) })
			tr.do("bench.table2", func() { bench.TableII(bufs["TABLE2"], true) })
			tr.do("bench.fig4", func() { fig4 = bench.Fig4(bufs["FIG4"], true) })
		})
	})
	if perr != nil {
		return iteration{}, perr
	}
	for _, s := range sweepSections {
		rows, bad := compareLines(p.ref[s], bufs[s].Bytes())
		it.attempted += rows
		it.failed += bad
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "paper-sweep: %s: %d of %d rows differ from results_quick.txt\n", s, bad, rows)
		}
	}
	for _, pt := range append(fig3, fig4...) {
		if pt.Err != nil {
			it.failed++
		}
	}
	it.ops = it.attempted - it.failed
	p.points, p.repeats = repeatedPoints(fig3, fig4)
	return it, nil
}

// pointKey identifies a measured point across experiments: the same
// library, routine, size and data placement under the same quick-sweep
// settings is the same simulation.
type pointKey struct {
	lib     string
	routine blasops.Routine
	n       int
	dod     bool
}

// repeatedPoints counts the points the three experiments measure and how
// many of them repeat a point measured earlier in the run. Table II returns
// no points, so its keys follow its definition: for each routine and each
// quick size of at least 16384, XKBlas on host and on device and the two
// ablations.
func repeatedPoints(fig3, fig4 []bench.Point) (points, repeats int) {
	seen := map[pointKey]bool{}
	visit := func(k pointKey) {
		points++
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	for _, pt := range fig3 {
		visit(pointKey{pt.Lib, pt.Routine, pt.N, false})
	}
	xk := baseline.XKBlas().Name()
	for _, r := range []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm} {
		for _, n := range bench.QuickSizes() {
			if n < 16384 {
				continue
			}
			visit(pointKey{xk, r, n, false})
			visit(pointKey{xk, r, n, true})
			visit(pointKey{baseline.XKBlasNoHeuristic().Name(), r, n, false})
			visit(pointKey{baseline.XKBlasNoHeuristicNoTopo().Name(), r, n, false})
		}
	}
	for _, pt := range fig4 {
		if pt.Lib == "XKBlas DoD" {
			visit(pointKey{xk, pt.Routine, pt.N, true})
		} else {
			visit(pointKey{pt.Lib, pt.Routine, pt.N, false})
		}
	}
	return points, repeats
}

func (p *paperSweep) layerMetrics(m metricSet, tr *tracer) {
	m.set("bench.fig3_s", tr.total("bench.fig3"), "s")
	m.set("bench.table2_s", tr.total("bench.table2"), "s")
	m.set("bench.fig4_s", tr.total("bench.fig4"), "s")
	m.set("bench.points", float64(p.points), "count")
	m.set("bench.repeat_point_frac", float64(p.repeats)/float64(p.points), "ratio")
	c := map[string]float64{}
	for _, s := range p.reg.Snapshot() {
		if s.Kind == metrics.KindCounter {
			c[s.Name] = float64(s.Int)
		} else {
			c[s.Name] = s.Float
		}
	}
	setRuntimeCounters(m, counters{
		tasks:        c["rt.tasks_run"],
		windowStalls: c["rt.window_stalls"],
		tasksLiveMax: c["rt.tasks_live_max"],
		steals:       c["rt.steals"],
		hits:         c["cache.hits"],
		misses:       c["cache.misses"],
		evictions:    c["cache.evictions"],
		dirtySkipped: c["policy.evict.dirty_skipped"],
		inflightWait: c["cache.inflight_waits"],
		h2dBytes:     c["cache.h2d.bytes"],
		p2pBytes:     c["cache.p2p.bytes"],
		srcHost:      c["policy.src.host"],
		srcNVLink2:   c["policy.src.nvlink2"],
		srcNVLink1:   c["policy.src.nvlink1"],
		srcPCIeP2P:   c["policy.src.pcie_p2p"],
		chainTaken:   c["policy.chain.taken"],
		chainMissed:  c["policy.chain.missed"],
	}, tr.total("bench.fig3")+tr.total("bench.table2")+tr.total("bench.fig4"))
}
