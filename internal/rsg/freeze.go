package rsg

import (
	"sync"
	"sync/atomic"
	"weak"
)

// This file implements the freeze contract: a Graph can be frozen into
// an immutable handle, after which every mutating method panics, the
// sorted adjacency/pvar views are served from caches built once, and the
// canonical binary digest is memoized. Frozen graphs are safely
// shareable — between RSRSGs, across cache layers, and (in a future
// sharded engine) across goroutines, because no code path may write to
// them. The only way to derive a new graph from a frozen one is Clone,
// which returns an unfrozen deep copy.

// Freeze makes the graph immutable, renumbers its nodes to 1..n (their
// order is kept, so the digest does not change; see renumber), builds
// the cached derived views (Pvars, AliasKey, SPaths) and computes the
// canonical digest. Freezing is idempotent; it returns the receiver for
// chaining. Node IDs read from the graph before the freeze may be
// stale afterwards; *Node pointers are not.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	g.renumber()
	cacheStats.digestsComputed.Add(1)
	return g.freezeWithDigest(computeDigest(g), nil)
}

// freezeWithDigest freezes g, already renumbered, reusing its digest
// (Intern probes the digest before deciding whether the freeze is
// needed). The flat encoding already *is* the sorted view, so freezing
// only pins the few derived results that are expensive to recompute
// (alias key, position-indexed SPATHs, pvar names). rec, when non-nil,
// also attributes the freeze to one run's RunStats.
func (g *Graph) freezeWithDigest(d Digest, rec *RunStats) *Graph {
	g.cPvars = g.Pvars()
	g.cAlias = aliasKey(g)
	g.cSPaths = g.SPaths()
	g.frozen = true
	g.digest = d
	cacheStats.graphsFrozen.Add(1)
	rec.addFrozen()
	return g
}

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// mustMutate panics when the graph is frozen. Every mutating Graph
// method calls it, enforcing the "graphs inside a Set are immutable"
// contract with the type system instead of convention.
func (g *Graph) mustMutate(op string) {
	if g.frozen {
		panic("rsg: " + op + " on frozen graph (Clone before mutating)")
	}
}

// Digest returns the 128-bit canonical digest of the graph: two graphs
// have equal digests iff their Signatures are equal (up to hash
// collision, negligible at 128 bits). On a frozen graph the digest was
// memoized at freeze time and this is a field read; on a mutable graph
// it is recomputed from scratch on every call.
func (g *Graph) Digest() Digest {
	if g.frozen {
		cacheStats.digestHits.Add(1)
		return g.digest
	}
	cacheStats.digestsComputed.Add(1)
	return computeDigest(g)
}

// ---- interning ---------------------------------------------------------

// internCap bounds the global intern table. Entries are weak: the table
// never keeps a graph alive, so a canonical instance lives exactly as
// long as some state outside the table holds it, and the next
// collection after its last user lets go frees it. A shard that fills
// its share first drops its dead entries, and is reset wholesale only
// if it is still full of live graphs — the cap bounds the table's own
// memory, not the graphs'.
const internCap = 1 << 15

// internShards splits the intern table by digest prefix so concurrent
// workers interning unrelated graphs do not serialize on one mutex.
// Structurally identical graphs always hash to the same shard (same
// digest), so the one-canonical-instance guarantee is per-digest and
// therefore global. Must be a power of two.
const internShards = 64

const internShardCap = internCap / internShards

// shard is one lock-striped slice of the intern table. The padding
// keeps neighbouring shard locks on distinct cache lines so they do not
// false-share under contention.
type shard struct {
	mu  sync.Mutex
	tab map[Digest]weak.Pointer[Graph]
	_   [40]byte
}

var internTab [internShards]shard

func internShard(d Digest) *shard {
	return &internTab[int(d[0])&(internShards-1)]
}

// Intern freezes g and returns the canonical instance for its digest:
// while a graph interned with a given canonical form is still in use,
// it is returned for every later structurally-identical graph, so
// signature-identical graphs created independently (e.g. by transfers
// at different program points) collapse to one shared immutable object.
// Once no one holds the canonical instance any more, the next graph
// with its digest becomes the canonical one.
//
// The digest is probed before freezing: a duplicate is discarded
// immediately, so only graphs that become the canonical instance pay
// for the freeze-time view construction. g is renumbered (see Freeze)
// either way.
//
// Intern is safe for concurrent use. The concurrency contract of the
// package is: frozen graphs are immutable and freely shareable across
// goroutines; an *unfrozen* graph (including the g passed here) must be
// owned by a single goroutine until it is frozen or interned.
func Intern(g *Graph) *Graph { return InternStats(g, nil) }

// internLocked inserts or retrieves the canonical instance for a frozen
// graph; the shard mutex must be held. A dead entry counts as a miss
// and is overwritten. rec, when non-nil, also attributes the hit/miss
// to one run's RunStats.
func (s *shard) internLocked(g *Graph, d Digest, rec *RunStats) *Graph {
	if old := s.tab[d].Value(); old != nil {
		if old == g {
			return g
		}
		cacheStats.internHits.Add(1)
		rec.addInternHit()
		return old
	}
	if s.tab == nil {
		s.tab = make(map[Digest]weak.Pointer[Graph], 64)
	} else if len(s.tab) >= internShardCap {
		s.sweepLocked()
	}
	s.tab[d] = weak.Make(g)
	cacheStats.internMisses.Add(1)
	rec.addInternMiss()
	return g
}

// sweepLocked makes room in a full shard: it deletes the entries whose
// graphs have been collected, and resets the shard wholesale only when
// live graphs alone still fill it. The shard mutex must be held.
func (s *shard) sweepLocked() {
	for d, wp := range s.tab {
		if wp.Value() == nil {
			delete(s.tab, d)
		}
	}
	if len(s.tab) >= internShardCap {
		s.tab = make(map[Digest]weak.Pointer[Graph], 64)
	}
}

// ---- observability counters -------------------------------------------

// CacheStats is a snapshot of the package-global digest/freeze/intern
// counters. The counters only ever grow; subtract two snapshots (Sub)
// to attribute activity to one analysis run.
type CacheStats struct {
	// GraphsFrozen counts Graph.Freeze calls that froze a graph.
	GraphsFrozen uint64
	// DigestsComputed counts full digest computations (one per freeze,
	// plus any Digest call on an unfrozen graph).
	DigestsComputed uint64
	// DigestCacheHits counts Digest calls served from the frozen cache.
	DigestCacheHits uint64
	// InternHits counts Intern calls that returned an existing canonical
	// instance; InternMisses counts first-time interns.
	InternHits   uint64
	InternMisses uint64
	// PoolGets counts scratch-buffer checkouts from the canon/kernel
	// pools; PoolNews counts the subset that had to allocate a fresh
	// scratch (a low PoolNews/PoolGets ratio means the pools are doing
	// their job).
	PoolGets uint64
	PoolNews uint64
	// MaskSpills counts insertions of a >64th symbol into a bitmask set
	// (the rare spill-slice path of SelSet/PvarSet).
	MaskSpills uint64
}

var cacheStats struct {
	graphsFrozen    atomic.Uint64
	digestsComputed atomic.Uint64
	digestHits      atomic.Uint64
	internHits      atomic.Uint64
	internMisses    atomic.Uint64
	poolGets        atomic.Uint64
	poolNews        atomic.Uint64
	maskSpills      atomic.Uint64
}

// ReadCacheStats returns the current counter values.
func ReadCacheStats() CacheStats {
	return CacheStats{
		GraphsFrozen:    cacheStats.graphsFrozen.Load(),
		DigestsComputed: cacheStats.digestsComputed.Load(),
		DigestCacheHits: cacheStats.digestHits.Load(),
		InternHits:      cacheStats.internHits.Load(),
		InternMisses:    cacheStats.internMisses.Load(),
		PoolGets:        cacheStats.poolGets.Load(),
		PoolNews:        cacheStats.poolNews.Load(),
		MaskSpills:      cacheStats.maskSpills.Load(),
	}
}

// Sub returns the counter-wise difference s - base.
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		GraphsFrozen:    s.GraphsFrozen - base.GraphsFrozen,
		DigestsComputed: s.DigestsComputed - base.DigestsComputed,
		DigestCacheHits: s.DigestCacheHits - base.DigestCacheHits,
		InternHits:      s.InternHits - base.InternHits,
		InternMisses:    s.InternMisses - base.InternMisses,
		PoolGets:        s.PoolGets - base.PoolGets,
		PoolNews:        s.PoolNews - base.PoolNews,
		MaskSpills:      s.MaskSpills - base.MaskSpills,
	}
}
