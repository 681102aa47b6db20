package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"xkblas/internal/serve"
)

// perLayer lists every metric of the traced run; BENCHMARK.json lists the
// same names. A layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"bench.fig3_s", "s"},
	{"bench.table2_s", "s"},
	{"bench.fig4_s", "s"},
	{"bench.points", "count"},
	{"bench.repeat_point_frac", "ratio"},
	{"core.submit_s", "s"},
	{"core.sync_s", "s"},
	{"core.host_gflops", "GFlop/s"},
	{"xkrt.tasks", "count"},
	{"xkrt.ns_per_task", "ns"},
	{"xkrt.window_stalls", "count"},
	{"xkrt.tasks_live_max", "count"},
	{"xkrt.steals", "count"},
	{"xkrt.submit_retire_ns", "ns"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"cache.evict_dirty_skipped", "count"},
	{"cache.inflight_waits", "count"},
	{"cache.h2d_mb", "MB"},
	{"cache.p2p_mb", "MB"},
	{"cache.valid_gpus_ns_r1", "ns"},
	{"cache.valid_gpus_ns_r4", "ns"},
	{"cache.valid_gpus_ns_r8", "ns"},
	{"cache.evict_ns", "ns"},
	{"cache.valid_gpus_cpu_frac", "ratio"},
	{"cache.evict_cpu_frac_interleaved", "ratio"},
	{"cache.evict_cpu_frac_flush_end", "ratio"},
	{"policy.src_host", "count"},
	{"policy.src_nvlink2", "count"},
	{"policy.src_nvlink1", "count"},
	{"policy.src_pcie_p2p", "count"},
	{"policy.chain_taken", "count"},
	{"policy.chain_missed", "count"},
	{"policy.select_source_ns", "ns"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.schedule_run_ns", "ns"},
	{"topology.route_ns", "ns"},
	{"hostblas.gemm_gflops_1t", "GFlop/s"},
	{"hostblas.gemm_gflops_nproc", "GFlop/s"},
	{"serve.served", "count"},
	{"serve.rejected", "count"},
	{"serve.timed_out", "count"},
	{"serve.failed", "count"},
	{"serve.fused_units", "count"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"bench.cpu_frac", "ratio"},
	{"baseline.cpu_frac", "ratio"},
	{"core.cpu_frac", "ratio"},
	{"xkrt.cpu_frac", "ratio"},
	{"cache.cpu_frac", "ratio"},
	{"policy.cpu_frac", "ratio"},
	{"sim.cpu_frac", "ratio"},
	{"topology.cpu_frac", "ratio"},
	{"device.cpu_frac", "ratio"},
	{"hostblas.cpu_frac", "ratio"},
	{"matrix.cpu_frac", "ratio"},
	{"serve.cpu_frac", "ratio"},
	{"runtime.cpu_frac", "ratio"},
	{"other.cpu_frac", "ratio"},
	{"host.wall_s", "s"},
	{"trace_overhead_frac", "ratio"},
}

// endToEndNames are the metrics of an untraced run.
var endToEndNames = []string{"cpu_s", "setup_s", "alloc_mb", "peak_rss_mb", "ops_per_cpu_s"}

// recordRefs regenerates the references of the workloads that keep them in
// refs/ (bign-stream and serve-replay). Use it only when a change is meant
// to alter simulated behaviour.
func recordRefs(cfg config) error {
	dir := filepath.Join(cfg.root, "perfbench", "refs")
	switch cfg.workload {
	case "bign-stream":
		out, err := recordBign()
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "bign.json"), append(b, '\n'), 0o644)
	case "serve-replay":
		rep, err := serve.Run(serveConfig(serveRefSeed))
		if err != nil {
			return err
		}
		b, err := reportBytes(rep)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "serve_seed1.json"), b, 0o644)
	}
	return fmt.Errorf("-record: %s keeps no reference in refs/", cfg.workload)
}
