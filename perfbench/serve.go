package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"os"
	"runtime"

	"xkblas/internal/serve"
	"xkblas/internal/topology"
)

// serve-replay: serve.Run on the dgx1,dgx2 fleet with bursty arrivals, the
// default request mix (batched and fused kinds included), 1000 tenants and
// one million requests. The inner simulations are memoized, so the cost is
// the outer engine queue, the fair-share servers and admission. The seed is
// the benchmark's; the default seed's report is also compared with the one
// recorded in refs/.
const (
	serveTenants  = 1000
	serveRequests = 1_000_000
)

//go:embed refs/serve_seed1.json
var serveRefJSON []byte

type serveReplay struct {
	seed int64
	cfg  serve.Config
	last *serve.Report
	// refChecked is set once the default seed's report has been compared
	// with the reference in this process.
	refChecked bool
}

// serveConfig is the workload's configuration for one seed.
func serveConfig(seed int64) serve.Config {
	cfg := serve.Defaults()
	cfg.Tenants = serveTenants
	cfg.Requests = serveRequests
	cfg.Seed = seed
	cfg.Parallel = runtime.NumCPU()
	return cfg
}

// serveRefSeed is the seed whose report refs/ holds.
var serveRefSeed = serve.Defaults().Seed

func (s *serveReplay) workers() map[string]int {
	return map[string]int{"serve_prewarm": s.cfg.Parallel, "sim": 1}
}

func (s *serveReplay) setup() error {
	s.cfg = serveConfig(s.seed)
	for _, name := range s.cfg.Fleet {
		p, ok := topology.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown platform %q", name)
		}
		if err := p.Validate(); err != nil {
			return err
		}
	}
	// The replay generates the same trace itself; generating it here keeps
	// input-generation cost visible in setup_s and checks its length.
	if n := len(serve.GenerateTrace(&s.cfg)); n != s.cfg.Requests {
		return fmt.Errorf("trace has %d arrivals, want %d", n, s.cfg.Requests)
	}
	return nil
}

// checkReport counts the failed operations of one replay: each failed
// request, plus one if the outcomes do not partition the requests.
func checkReport(rep *serve.Report, requests int) (failed int, problems []string) {
	failed = rep.Failed
	if rep.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed requests", rep.Failed))
	}
	if got := rep.Served + rep.Rejected + rep.TimedOut + rep.Failed; got != requests || rep.Requests != requests {
		problems = append(problems, fmt.Sprintf("outcomes sum to %d, report counts %d requests, want %d", got, rep.Requests, requests))
	}
	var req, served, rejected, timedOut, fail int
	for _, t := range rep.Tiers {
		if n := t.Served + t.RejectedQuota + t.RejectedQueue + t.TimedOut + t.Failed; n != t.Requests {
			problems = append(problems, fmt.Sprintf("tier %s: outcomes sum to %d of %d requests", t.Name, n, t.Requests))
		}
		req += t.Requests
		served += t.Served
		rejected += t.RejectedQuota + t.RejectedQueue
		timedOut += t.TimedOut
		fail += t.Failed
	}
	if req != requests || served != rep.Served || rejected != rep.Rejected || timedOut != rep.TimedOut || fail != rep.Failed {
		problems = append(problems, "tier totals disagree with the report totals")
	}
	if len(problems) > 0 && failed == 0 {
		failed = 1
	}
	return failed, problems
}

// reportBytes renders a report the way the reference stores it.
func reportBytes(rep *serve.Report) ([]byte, error) {
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// compareRef checks a default-seed report against refs/; it returns 1 on a
// mismatch.
func compareRef(rep *serve.Report) int {
	got, err := reportBytes(rep)
	if err == nil && !bytes.Equal(got, serveRefJSON) {
		err = fmt.Errorf("report differs from refs/serve_seed1.json")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve-replay: %v\n", err)
		return 1
	}
	return 0
}

func (s *serveReplay) iterate(tr *tracer) (iteration, error) {
	var rep *serve.Report
	var err, perr error
	it := measure(func() {
		perr = tr.profile("replay", func() {
			tr.do("serve.run", func() { rep, err = serve.Run(s.cfg) })
		})
	})
	if perr != nil {
		return iteration{}, perr
	}
	// One operation per request plus the report itself.
	it.attempted = s.cfg.Requests + 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve-replay: %v\n", err)
		it.failed = it.attempted
		return it, nil
	}
	s.last = rep
	failed, problems := checkReport(rep, s.cfg.Requests)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "serve-replay: seed %d: %s\n", s.seed, p)
	}
	it.failed = failed
	if s.seed == serveRefSeed {
		it.failed += compareRef(rep)
	} else if !s.refChecked {
		// Other seeds have no reference; replay the default seed once,
		// outside the timed part, so every run checks byte identity.
		it.attempted++
		ref, err := serve.Run(serveConfig(serveRefSeed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve-replay: reference seed: %v\n", err)
			it.failed++
		} else {
			it.failed += compareRef(ref)
		}
	}
	s.refChecked = true
	it.ops = s.cfg.Requests - rep.Failed
	return it, nil
}

func (s *serveReplay) layerMetrics(m metricSet, tr *tracer) {
	rep := s.last
	if rep == nil {
		return
	}
	m.set("serve.served", float64(rep.Served), "count")
	m.set("serve.rejected", float64(rep.Rejected), "count")
	m.set("serve.timed_out", float64(rep.TimedOut), "count")
	m.set("serve.failed", float64(rep.Failed), "count")
	fused := 0
	for _, p := range rep.Platforms {
		fused += p.FusedUnits
	}
	m.set("serve.fused_units", float64(fused), "count")
}
