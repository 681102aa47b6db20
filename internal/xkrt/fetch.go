package xkrt

import (
	"errors"
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/policy"
	"xkblas/internal/topology"
)

// fetchInput stages one input tile onto dev, counting it against the task's
// pendingFetch; the kernel launches once every input has arrived.
func (rt *Runtime) fetchInput(t *Task, tile *cache.Tile, dev topology.DeviceID) {
	if tile.ValidOn(dev) {
		rt.Cache.NoteHit()
		rt.Cache.Pin(tile, dev)
		rt.Cache.Touch(tile, dev)
		return
	}
	rt.Cache.NoteMiss()
	t.pendingFetch++
	rt.requestReplica(tile, dev, func() {
		rt.Cache.Pin(tile, dev)
		rt.Cache.Touch(tile, dev)
		t.pendingFetch--
		if t.pendingFetch == 0 {
			rt.launchKernel(t)
		}
	})
}

// requestReplica is the shared fetch-planning prologue of kernel-input
// staging and prefetch: piggyback on a transfer already headed to dev, or
// let the source policy choose where the replica comes from and issue the
// movement. arrived runs once the replica is valid on dev; if the transfer
// chain feeding dev fails instead, the run is failed and arrived never
// fires.
func (rt *Runtime) requestReplica(tile *cache.Tile, dev topology.DeviceID, arrived func()) {
	if tile.InflightTo(dev) {
		// Another consumer on this device already requested the tile:
		// piggyback, never duplicate a transfer.
		rt.Cache.NoteInflightWait()
		tile.AddInflightWaiter(dev, func(err error) {
			if err != nil {
				rt.fail(err)
				return
			}
			arrived()
		})
		return
	}
	src, chained := rt.selectSource(tile, dev)
	rt.issueFetch(tile, src, dev, chained, arrived)
}

// selectSource delegates to the bundle's source policy (§III-B/§III-C via
// policy.SelectSource). The returned chained flag means "src is an
// in-flight destination to wait on", not a valid holder.
func (rt *Runtime) selectSource(tile *cache.Tile, dst topology.DeviceID) (topology.DeviceID, bool) {
	src, chained, ok := policy.SelectSourceInto(rt.Opt.Policy.Source, rt.Plat.Topo, tile, dst, rt.counters, rt.srcScratch)
	if !ok {
		panic(fmt.Sprintf("xkrt: tile %v has no valid copy anywhere", tile.Key))
	}
	return src, chained
}

// issueFetch starts the physical movement chosen by the source policy. For
// a chained source it registers the under-transfer state on dst immediately —
// the §III-C metadata extension — so further consumers piggyback on dst's
// pending arrival rather than issuing their own copies.
func (rt *Runtime) issueFetch(tile *cache.Tile, src topology.DeviceID, dst topology.DeviceID, chained bool, done func()) {
	if !chained {
		if src == topology.Host {
			rt.stats.HostFallbacks++
		} else {
			rt.stats.PeerSources++
		}
		rt.counters.CountTransfer(rt.Plat.Topo, src, dst)
		if err := rt.Cache.StartTransfer(tile, src, dst, done); err != nil {
			if errors.Is(err, cache.ErrDeviceOOM) {
				rt.fail(fmt.Errorf("xkrt: fetch of %v to GPU %d: %w", tile.Key, dst, err))
				return
			}
			panic(fmt.Sprintf("xkrt: %v", err))
		}
		return
	}
	rt.stats.ChainedHops++
	rt.Cache.MarkInflight(tile, dst)
	// Remember the synthetic mark so a run cancellation can sweep it: if the
	// upstream hop never lands (engine aborted), nothing else would notify
	// the waiters piggybacked on dst.
	rt.chains = append(rt.chains, chainMark{tile: tile, dst: dst})
	rt.armChainHop(tile, src, dst, done)
}

// armChainHop waits for the upstream hop of an optimistic chain to land on
// src, then forwards the tile to dst over the peer link. The synthetic
// under-transfer record on dst was registered by issueFetch; armChainHop
// owns it from here: the physical StartTransfer adopts it on the normal
// path, and every failure path cancels it so downstream piggybackers are
// notified instead of wedged (a cancelled chain used to leave InflightTo
// true forever).
//
// src being valid when the waiter fires is NOT guaranteed: waiters run in
// registration order, and an earlier waiter of the same arrival can launch
// a kernel whose allocation evicts the just-arrived, unpinned replica on
// src before our StartTransfer runs. The waiter therefore re-validates src
// and, if the replica is gone, re-selects a source — possibly another
// in-flight destination, in which case the chain re-arms on it without
// re-marking dst.
func (rt *Runtime) armChainHop(tile *cache.Tile, src, dst topology.DeviceID, done func()) {
	tile.AddInflightWaiter(src, func(err error) {
		if err != nil {
			// The upstream hop itself was cancelled: cascade.
			rt.Cache.CancelInflight(tile, dst, err)
			rt.fail(err)
			return
		}
		if !tile.ValidOn(src) {
			nsrc, chained := rt.selectSource(tile, dst)
			if nsrc == dst {
				// Unreachable: dst's own record is synthetic (no data is
				// coming) and selectSource only offers dst once every
				// valid/dirty/host copy is gone, which eviction of clean
				// replicas cannot cause. Guard against self-deadlock anyway.
				panic(fmt.Sprintf("xkrt: chained hop of %v re-selected its own destination %d", tile.Key, dst))
			}
			if chained {
				rt.armChainHop(tile, nsrc, dst, done)
				return
			}
			src = nsrc
		}
		if src == topology.Host {
			rt.stats.HostFallbacks++
		} else {
			rt.stats.PeerSources++
		}
		rt.counters.CountTransfer(rt.Plat.Topo, src, dst)
		if err := rt.Cache.StartTransfer(tile, src, dst, done); err != nil {
			if errors.Is(err, cache.ErrDeviceOOM) {
				ferr := fmt.Errorf("xkrt: chained hop of %v to GPU %d: %w", tile.Key, dst, err)
				rt.Cache.CancelInflight(tile, dst, ferr)
				rt.fail(ferr)
				return
			}
			panic(fmt.Sprintf("xkrt: chained hop: %v", err))
		}
	})
}
