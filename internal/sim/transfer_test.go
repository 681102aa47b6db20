package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refTransfer is the per-hop-closure join Transfer used before it drew
// pooled join records from the engine; the oracle for timing parity.
func refTransfer(path []Resource, size float64, overhead Time, done func(start, end Time)) {
	remaining := len(path)
	first := Infinity
	var last Time
	for _, srv := range path {
		srv.Submit(size, overhead, func(st, en Time) {
			if st < first {
				first = st
			}
			if en > last {
				last = en
			}
			remaining--
			if remaining == 0 && done != nil {
				done(first, last)
			}
		})
	}
}

// TestTransferSteadyStateAllocationFree: once the engine's event and join
// pools and the servers' job pools are warm, a 3-hop transfer over FIFO
// servers allocates nothing.
func TestTransferSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	path := []Resource{NewServer(e, "a", 100), NewServer(e, "b", 50), NewServer(e, "c", 200)}
	n := 0
	done := func(_, _ Time) { n++ }
	Transfer(e, path, 100, Microseconds(1), done)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		Transfer(e, path, 100, Microseconds(1), done)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("warm 3-hop transfer allocates %.1f objects, want 0", allocs)
	}
	if n != 102 {
		t.Fatalf("done fired %d times over 102 transfers", n)
	}
}

// TestTransferReportsEarliestStartLatestEnd: the hops queue independently;
// the transfer starts at the earliest hop start and ends at the latest hop
// end, and done fires exactly once.
func TestTransferReportsEarliestStartLatestEnd(t *testing.T) {
	e := NewEngine()
	busy := NewServer(e, "busy", 100)
	idle := NewServer(e, "idle", 100)
	slow := NewServer(e, "slow", 20)
	busy.Submit(300, 0, nil) // busy until 3
	calls := 0
	var start, end Time
	Transfer(e, []Resource{busy, idle, slow}, 100, 0, func(st, en Time) {
		calls++
		start, end = st, en
	})
	e.Run()
	if calls != 1 {
		t.Fatalf("done fired %d times, want 1", calls)
	}
	// idle serves [0,1], busy [3,4], slow [0,5].
	if start != 0 || end != 5 {
		t.Fatalf("transfer = [%v,%v], want [0,5]", start, end)
	}
}

// TestTransferNilDone: a transfer without a callback still occupies every
// hop, and its join record is reused by the next transfer.
func TestTransferNilDone(t *testing.T) {
	e := NewEngine()
	a, b := NewServer(e, "a", 100), NewServer(e, "b", 100)
	Transfer(e, []Resource{a, b}, 100, 0, nil)
	var end Time
	Transfer(e, []Resource{a, b}, 100, 0, func(_, en Time) { end = en })
	e.Run()
	if end != 2 {
		t.Fatalf("second transfer ended at %v, want 2 (queued behind the first)", end)
	}
	if a.Stats().Served != 2 || b.Stats().Served != 2 {
		t.Fatalf("served %d/%d jobs, want 2/2", a.Stats().Served, b.Stats().Served)
	}
}

// TestTransferMatchesClosureJoin replays seeded random transfers over mixed
// FIFO and processor-sharing hops through Transfer and through the former
// closure join on twin platforms: every transfer must report the same
// start and end, in the same completion order.
func TestTransferMatchesClosureJoin(t *testing.T) {
	type rec struct {
		id         int
		start, end Time
	}
	run := func(seed int64, xfer func(e *Engine, path []Resource, size float64, done func(st, en Time))) []rec {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		res := []Resource{
			NewServer(e, "f0", 100), NewServer(e, "f1", 40),
			NewFairServer(e, "s0", 80), NewFairServer(e, "s1", 150),
		}
		var out []rec
		for id := 0; id < 60; id++ {
			path := make([]Resource, 0, 3)
			for _, r := range rng.Perm(len(res))[:1+rng.Intn(3)] {
				path = append(path, res[r])
			}
			size := float64(1 + rng.Intn(500))
			e.At(Time(rng.Float64()*20), func() {
				xfer(e, path, size, func(st, en Time) { out = append(out, rec{id, st, en}) })
			})
		}
		e.Run()
		return out
	}
	pooled := func(e *Engine, path []Resource, size float64, done func(st, en Time)) {
		Transfer(e, path, size, Microseconds(2), done)
	}
	closure := func(_ *Engine, path []Resource, size float64, done func(st, en Time)) {
		refTransfer(path, size, Microseconds(2), done)
	}
	for seed := int64(1); seed <= 10; seed++ {
		got, want := run(seed, pooled), run(seed, closure)
		if len(want) != 60 {
			t.Fatalf("seed %d: oracle completed %d of 60 transfers", seed, len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: pooled join diverges from the closure join:\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestTransferAfterResetDroppingHalfFinished: Engine.Reset drops a transfer
// with one hop done and one pending; its callback never fires, and the next
// transfer on the reset engine reports correct times.
func TestTransferAfterResetDroppingHalfFinished(t *testing.T) {
	e := NewEngine()
	fast, slow := NewServer(e, "fast", 100), NewServer(e, "slow", 10)
	path := []Resource{fast, slow}
	stale := 0
	Transfer(e, path, 100, 0, func(_, _ Time) { stale++ })
	e.RunUntil(5) // fast finished at 1, slow ends at 10
	e.Reset()
	fast.Reset()
	slow.Reset()

	calls := 0
	var start, end Time
	Transfer(e, path, 50, 0, func(st, en Time) {
		calls++
		start, end = st, en
	})
	Transfer(e, path, 50, 0, nil)
	e.Run()
	if stale != 0 {
		t.Fatalf("dropped transfer's callback fired %d times", stale)
	}
	if calls != 1 || start != 0 || end != 5 {
		t.Fatalf("post-reset transfer: %d calls, [%v,%v], want 1 call, [0,5]", calls, start, end)
	}
}
