// Package fanout is the one executor behind every fan-out of independent
// simulations: the sweep harness's leaf runs, the extension experiments'
// repetitions and the serving front end's demand prewarm. Callers keep
// their own seeds and reductions; fanout only decides which goroutine runs
// which index, and never changes what an index computes.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) on max(1, workers)
// long-lived workers (never more than n). Indices are dispatched in
// ascending order: a worker claims the next undispatched index whenever it
// finishes one, so at most `workers` calls run at a time and a call never
// starts before every lower index has started. The calling goroutine is
// one of the workers, so with one worker Each is a plain loop. Each
// returns once every call has returned.
func Each(workers, n int, fn func(i int)) {
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
