package bench

import (
	"io"
	"runtime"

	"xkblas/internal/metrics"
)

// Package-level configuration kept only for callers that predate Env. Each
// variable is read in exactly one place, legacyEnv, and only the three
// deprecated drivers below use it.

// Deprecated: DefaultParallelism is the Env.Parallel of the deprecated
// Fig3, TableII and Fig4 functions; set Env.Parallel instead.
var DefaultParallelism = runtime.NumCPU()

// Deprecated: SimWorkers is ignored; every engine runs one sequential
// event loop. It once selected a partitioned loop whose results were
// bit-identical at any worker count, so ignoring it changes no output.
var SimWorkers int

// Deprecated: MetricsEnabled is the Env.Metrics of the deprecated Fig3,
// TableII and Fig4 functions; set Env.Metrics instead.
var MetricsEnabled bool

// Deprecated: GlobalMetrics is the Env.Sink of the deprecated Fig3,
// TableII and Fig4 functions; set Env.Sink instead.
var GlobalMetrics *metrics.Registry

// legacyEnv is the Env the deprecated package variables describe.
func legacyEnv() Env {
	return Env{Parallel: DefaultParallelism, Metrics: MetricsEnabled, Sink: GlobalMetrics}
}

// Deprecated: use Env.Fig3.
func Fig3(w io.Writer, quick bool) []Point { return legacyEnv().Fig3(w, quick) }

// Deprecated: use Env.TableII.
func TableII(w io.Writer, quick bool) { legacyEnv().TableII(w, quick) }

// Deprecated: use Env.Fig4.
func Fig4(w io.Writer, quick bool) []Point { return legacyEnv().Fig4(w, quick) }
