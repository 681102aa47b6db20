package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEach checks the executor contract under -race: every index runs
// exactly once, no more than `workers` calls overlap, and one worker runs
// the indices in ascending order on the calling goroutine.
func TestEach(t *testing.T) {
	const n = 2000
	for _, workers := range []int{-1, 0, 1, 2, 7, 32, 3 * n} {
		var runs [n]atomic.Int32
		var live, peak atomic.Int64
		var order []int
		Each(workers, n, func(i int) {
			cur := live.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			runs[i].Add(1)
			if workers <= 1 {
				order = append(order, i) // one worker: no concurrent append
			}
			runtime.Gosched()
			live.Add(-1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		if limit := int64(max(workers, 1)); peak.Load() > limit {
			t.Fatalf("workers=%d: %d concurrent calls", workers, peak.Load())
		}
		if workers <= 1 {
			for i, v := range order {
				if v != i {
					t.Fatalf("workers=%d: call %d ran index %d, want ascending order", workers, i, v)
				}
			}
		}
	}
}

// TestEachEmpty checks that no work runs and nothing blocks for n = 0.
func TestEachEmpty(t *testing.T) {
	Each(4, 0, func(int) { t.Fatal("called with n = 0") })
}
