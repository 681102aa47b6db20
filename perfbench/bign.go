package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
)

// bign-stream: one timing-mode GEMM at N=163840, nb=2048 (518,400 tasks)
// streamed through a 4096-task admission window, once with the interleaved
// per-tile flush and once with the end-of-call flush. The same cache is used
// two ways: interleaved write-back keeps replicas clean, while the
// end-of-call flush lets dirty C pile up so every allocation's eviction scan
// walks past it. No sweep harness, no repeated points, no DMDAS.
const (
	bignN      = 163840
	bignNB     = 2048
	bignWindow = 4096
)

var bignLegs = []struct {
	name     string
	flushEnd bool
}{
	{"interleaved", false},
	{"flush_end", true},
}

//go:embed refs/bign.json
var bignRefJSON []byte

// bignOutput is the virtual-time outcome of one leg: everything here is
// simulated, so a host-speed change must leave it identical.
type bignOutput struct {
	Elapsed      string `json:"elapsed_s"` // exact decimal of the float64
	GFlops       string `json:"gflops"`
	Tasks        int64  `json:"tasks"`
	TasksLiveMax int    `json:"tasks_live_max"`
	TilesLiveMax int    `json:"tiles_live_max"`
	WindowStalls int64  `json:"window_stalls"`
	Evictions    int64  `json:"evictions"`
}

type bignLeg struct {
	h       *core.Handle
	a, b, c *xkrt.Matrix
}

type bignStream struct {
	record bool
	ref    map[string]bignOutput
	legs   []*bignLeg // nil once an iteration consumed them
	last   []*bignLeg // the legs of the latest iteration, for the counters
}

func (s *bignStream) workers() map[string]int { return map[string]int{"sim": 1} }

func (s *bignStream) setup() error {
	if !s.record {
		s.ref = map[string]bignOutput{}
		if err := json.Unmarshal(bignRefJSON, &s.ref); err != nil {
			return fmt.Errorf("refs/bign.json: %w", err)
		}
		for _, leg := range bignLegs {
			if _, ok := s.ref[leg.name]; !ok {
				return fmt.Errorf("refs/bign.json: no %q leg", leg.name)
			}
		}
	}
	s.legs = s.legs[:0]
	for range bignLegs {
		opts := xkrt.DefaultOptions()
		opts.StreamWindow = bignWindow
		h := core.NewHandle(core.Config{TileSize: bignNB, Options: opts, SimWorkers: 1})
		s.legs = append(s.legs, &bignLeg{
			h: h,
			a: h.Register(matrix.NewShape(bignN, bignN)),
			b: h.Register(matrix.NewShape(bignN, bignN)),
			c: h.Register(matrix.NewShape(bignN, bignN)),
		})
	}
	return nil
}

// runLeg submits and completes one leg's GEMM inside the timed part.
func runLeg(tr *tracer, l *bignLeg, flushEnd bool) {
	h := l.h
	tr.do("core.submit", func() {
		if flushEnd {
			h.GemmAsync(core.NoTrans, core.NoTrans, 1, l.a, l.b, 1, l.c)
			h.MemoryCoherentAsync(l.c)
		} else {
			h.GemmFlushAsync(core.NoTrans, core.NoTrans, 1, l.a, l.b, 1, l.c)
		}
	})
	tr.do("core.sync", func() { h.Sync() })
}

// legOutput reads a finished leg's virtual outputs.
func legOutput(l *bignLeg) (bignOutput, error) {
	h := l.h
	if err := h.RT.Err(); err != nil {
		return bignOutput{}, err
	}
	el := float64(h.Now())
	return bignOutput{
		Elapsed:      strconv.FormatFloat(el, 'g', -1, 64),
		GFlops:       strconv.FormatFloat(blasops.GFlops(blasops.FlopsSquare(blasops.Gemm, bignN), el), 'g', -1, 64),
		Tasks:        h.RT.Stats().TasksRun,
		TasksLiveMax: h.RT.TasksLiveMax(),
		TilesLiveMax: h.RT.Cache.TilesLiveMax(),
		WindowStalls: h.RT.WindowStalls(),
		Evictions:    h.RT.Cache.Stats().Evictions,
	}, nil
}

func (s *bignStream) iterate(tr *tracer) (iteration, error) {
	if s.legs == nil {
		if err := s.setup(); err != nil {
			return iteration{}, err
		}
	}
	legs := s.legs
	s.legs, s.last = nil, legs
	var it iteration
	for i, leg := range bignLegs {
		var perr error
		part := measure(func() {
			tr.do("bign."+leg.name, func() {
				perr = tr.profile(leg.name, func() { runLeg(tr, legs[i], leg.flushEnd) })
			})
		})
		if perr != nil {
			return it, perr
		}
		it.wall += part.wall
		it.cpu += part.cpu
		it.allocBytes += part.allocBytes
		it.attempted++
		got, err := legOutput(legs[i])
		if err == nil && got != s.ref[leg.name] {
			err = fmt.Errorf("virtual output %+v, reference %+v", got, s.ref[leg.name])
		}
		if err != nil {
			it.failed++
			fmt.Fprintf(os.Stderr, "bign-stream: %s: %v\n", leg.name, err)
		} else {
			it.ops++
		}
	}
	return it, nil
}

func (s *bignStream) layerMetrics(m metricSet, tr *tracer) {
	m.set("core.submit_s", tr.total("core.submit"), "s")
	m.set("core.sync_s", tr.total("core.sync"), "s")
	var c counters
	for _, l := range s.last {
		c.addHandle(l.h)
	}
	setRuntimeCounters(m, c, tr.total("bign.interleaved")+tr.total("bign.flush_end"))
	for i, leg := range bignLegs {
		if i < len(tr.profiles) {
			if p, err := readProfiles(tr.profiles[i : i+1]); err == nil {
				m.set("cache.evict_cpu_frac_"+leg.name, p.cumFrac("xkblas/internal/cache.(*Cache).evict"), "ratio")
			}
		}
	}
}

// addHandle accumulates a finished handle's counters.
func (c *counters) addHandle(h *core.Handle) {
	st := h.RT.Stats()
	cs := h.RT.Cache.Stats()
	d := h.RT.Decisions()
	c.tasks += float64(st.TasksRun)
	c.steals += float64(st.Steals)
	c.windowStalls += float64(h.RT.WindowStalls())
	c.tasksLiveMax = max(c.tasksLiveMax, float64(h.RT.TasksLiveMax()))
	c.hits += float64(cs.Hits)
	c.misses += float64(cs.Misses)
	c.evictions += float64(cs.Evictions)
	c.dirtySkipped += float64(d.EvictDirtySkipped)
	c.inflightWait += float64(cs.InflightWaits)
	c.h2dBytes += float64(cs.H2DBytes)
	c.p2pBytes += float64(cs.P2PBytes)
	c.srcHost += float64(d.SrcHost)
	c.srcNVLink2 += float64(d.SrcNVLink2)
	c.srcNVLink1 += float64(d.SrcNVLink1)
	c.srcPCIeP2P += float64(d.SrcPCIeP2P)
	c.chainTaken += float64(d.ChainsTaken)
	c.chainMissed += float64(d.ChainsMissed)
	c.events += float64(h.Eng.Fired())
}

// recordBign runs both legs once and returns their outputs, for -record.
func recordBign() (map[string]bignOutput, error) {
	s := &bignStream{record: true}
	if err := s.setup(); err != nil {
		return nil, err
	}
	out := map[string]bignOutput{}
	for i, leg := range bignLegs {
		runLeg(nil, s.legs[i], leg.flushEnd)
		o, err := legOutput(s.legs[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", leg.name, err)
		}
		out[leg.name] = o
	}
	return out, nil
}
