package rsg

import "sync/atomic"

// RunStats is a per-run recorder for the digest/freeze/intern counters.
// The package-global cacheStats tallies are whole-process truth; a
// process running several analyses at once (the daemon's steady state)
// cannot attribute a global delta to one run. Callers that want exact
// attribution allocate one RunStats per run and pass it through the
// recorder-aware entry points (InternStats, DigestStats); every
// recorded operation bumps both the recorder and the global counters,
// so ReadCacheStats stays complete while Snapshot is run-exact.
//
// A nil *RunStats is valid everywhere and records nothing.
type RunStats struct {
	graphsFrozen    atomic.Uint64
	digestsComputed atomic.Uint64
	digestHits      atomic.Uint64
	internHits      atomic.Uint64
	internMisses    atomic.Uint64
}

func (r *RunStats) addFrozen() {
	if r != nil {
		r.graphsFrozen.Add(1)
	}
}

func (r *RunStats) addComputed() {
	if r != nil {
		r.digestsComputed.Add(1)
	}
}

func (r *RunStats) addDigestHit() {
	if r != nil {
		r.digestHits.Add(1)
	}
}

func (r *RunStats) addInternHit() {
	if r != nil {
		r.internHits.Add(1)
	}
}

func (r *RunStats) addInternMiss() {
	if r != nil {
		r.internMisses.Add(1)
	}
}

// Snapshot returns the recorded counters in CacheStats form. Only the
// per-run-attributable fields are populated; PoolGets/PoolNews/
// MaskSpills stay zero — the scratch pools and mask spill paths are
// process-shared infrastructure with no per-run identity, so those
// tallies remain global-only.
func (r *RunStats) Snapshot() CacheStats {
	if r == nil {
		return CacheStats{}
	}
	return CacheStats{
		GraphsFrozen:    r.graphsFrozen.Load(),
		DigestsComputed: r.digestsComputed.Load(),
		DigestCacheHits: r.digestHits.Load(),
		InternHits:      r.internHits.Load(),
		InternMisses:    r.internMisses.Load(),
	}
}

// DigestStats is Digest with per-run attribution: the computation (or
// frozen-cache hit) is recorded into rec as well as the global
// counters. A nil rec makes it identical to Digest.
func (g *Graph) DigestStats(rec *RunStats) Digest {
	if g.frozen {
		cacheStats.digestHits.Add(1)
		rec.addDigestHit()
		return g.digest
	}
	cacheStats.digestsComputed.Add(1)
	rec.addComputed()
	return computeDigest(g)
}

// InternStats is Intern with per-run attribution: the digest
// computation, freeze, and intern hit/miss are recorded into rec as
// well as the global counters. A nil rec makes it identical to Intern.
func InternStats(g *Graph, rec *RunStats) *Graph {
	if g.frozen {
		s := internShard(g.digest)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.internLocked(g, g.digest, rec)
	}
	g.renumber() // digests, and every lookup after, run on dense IDs
	d := g.DigestStats(rec)
	s := internShard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A missing or collected entry reads as nil: both are misses.
	if old := s.tab[d].Value(); old != nil {
		cacheStats.internHits.Add(1)
		rec.addInternHit()
		return old
	}
	g.freezeWithDigest(d, rec)
	return s.internLocked(g, d, rec)
}
