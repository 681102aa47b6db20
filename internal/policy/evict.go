package policy

// EvictCandidate describes one resident replica offered to the evictor, in
// the cache's least-recently-used scan order.
type EvictCandidate struct {
	// Dirty means the replica is the only copy of its tile's current
	// version; dropping it silently would lose data. The cache's capacity
	// scan keeps dirty replicas off its eviction list, so it never offers
	// one; an evictor must still refuse them.
	Dirty bool
	// Pinned means a task is actively using (or transferring from) the
	// replica.
	Pinned bool
	// Inflight means a transfer toward this replica's device is pending.
	Inflight bool
}

// Evictor decides which replicas leave device memory: under capacity
// pressure (ShouldEvict, consulted in LRU order) and after each kernel
// (RetainAfterRead, the streaming-vs-caching axis separating cuBLAS-XT
// from the caching runtimes in Fig. 6).
type Evictor interface {
	Name() string

	// ShouldEvict reports whether the candidate may be dropped to free
	// memory. Returning true for a Dirty candidate is a policy bug: the
	// cache refuses to drop the only copy of a tile and panics.
	ShouldEvict(c EvictCandidate) bool

	// RetainAfterRead reports whether read-operand replicas stay cached
	// once the consuming kernel finishes. Streaming libraries return
	// false: every later read re-fetches the operand.
	RetainAfterRead() bool
}

// LRUReadOnlyFirst is XKaapi's eviction policy (§III-A): under pressure,
// drop unpinned clean replicas in least-recently-used order; dirty replicas
// are never dropped silently. Operands stay cached after use.
type LRUReadOnlyFirst struct{}

// Name implements Evictor.
func (LRUReadOnlyFirst) Name() string { return "lru-read-only-first" }

// ShouldEvict implements Evictor.
func (LRUReadOnlyFirst) ShouldEvict(c EvictCandidate) bool {
	return !c.Dirty && !c.Pinned && !c.Inflight
}

// RetainAfterRead implements Evictor.
func (LRUReadOnlyFirst) RetainAfterRead() bool { return true }

// Streaming is cuBLAS-XT's discipline: tiles pipe through fixed staging
// buffers, so input replicas are dropped as soon as the consuming kernel
// finishes and every product re-reads its operands over PCIe (the
// HtoD-dominated profile of Fig. 6). Capacity pressure behaves like
// LRUReadOnlyFirst.
type Streaming struct{}

// Name implements Evictor.
func (Streaming) Name() string { return "streaming" }

// ShouldEvict implements Evictor.
func (Streaming) ShouldEvict(c EvictCandidate) bool {
	return !c.Dirty && !c.Pinned && !c.Inflight
}

// RetainAfterRead implements Evictor.
func (Streaming) RetainAfterRead() bool { return false }
