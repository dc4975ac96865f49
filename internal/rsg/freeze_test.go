package rsg

import (
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// mustPanic runs f and reports an error unless it panics.
func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a frozen graph did not panic", op)
		}
	}()
	f()
}

func TestFrozenMutatorsPanic(t *testing.T) {
	g, n1, _, _ := dlist(true)
	g.Freeze()

	mustPanic(t, "AddNode", func() { g.AddNode(NewNode("elem")) })
	mustPanic(t, "SetPvar", func() { g.SetPvar("y", n1.ID) })
	mustPanic(t, "ClearPvar", func() { g.ClearPvar("x") })
	mustPanic(t, "AddLink", func() { g.AddLink(n1.ID, "prv", n1.ID) })
	mustPanic(t, "RemoveLink", func() { g.RemoveLink(n1.ID, "nxt", n1.ID) })
	mustPanic(t, "RemoveNode", func() { g.RemoveNode(n1.ID) })
}

func TestFreezeIdempotent(t *testing.T) {
	g, _, _, _ := dlist(true)
	g.Freeze()
	d := g.Digest()
	g.Freeze() // second freeze is a no-op
	if g.Digest() != d {
		t.Fatal("digest changed across repeated Freeze")
	}
	if !g.Frozen() {
		t.Fatal("Frozen() is false after Freeze")
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	g, n1, _, _ := dlist(true)
	g.Freeze()
	c := g.Clone()
	if c.Frozen() {
		t.Fatal("clone of a frozen graph must be mutable")
	}
	// All mutators must work on the clone and leave the original intact.
	c.SetPvar("y", n1.ID)
	c.AddLink(n1.ID, "prv", n1.ID)
	c.RemoveLink(n1.ID, "prv", n1.ID)
	c.ClearPvar("y")
	if Signature(c) != Signature(g) {
		t.Fatal("round-trip mutations on the clone should restore the signature")
	}
}

// TestFrozenViewsMatchUnfrozen checks that the cached views built at
// freeze time agree with the live computation on the mutable graph.
func TestFrozenViewsMatchUnfrozen(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		sig := Signature(g)
		alias := AliasKey(g)
		ids := append([]NodeID{}, g.NodeIDs()...)
		pvars := append([]string{}, g.Pvars()...)

		f := g.Clone()
		f.Freeze()
		if Signature(f) != sig || AliasKey(f) != alias {
			return false
		}
		if len(f.NodeIDs()) != len(ids) || len(f.Pvars()) != len(pvars) {
			return false
		}
		for _, id := range ids {
			sels := g.OutSelectors(id)
			if len(sels) != len(f.OutSelectors(id)) {
				return false
			}
			for _, sel := range sels {
				if len(g.Targets(id, sel)) != len(f.Targets(id, sel)) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestDigestEquivalentToSignature is the randomized property test: for
// random graph pairs, a.Digest() == b.Digest() <=> Signature(a) == Signature(b).
func TestDigestEquivalentToSignature(t *testing.T) {
	err := quick.Check(func(seedA, seedB int64) bool {
		a := randomGraph(rand.New(rand.NewSource(seedA)))
		b := randomGraph(rand.New(rand.NewSource(seedB)))
		return a.Digest() == b.Digest() == (Signature(a) == Signature(b))
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
	// Equal-by-construction pairs, including across freezing.
	err = quick.Check(func(seed int64) bool {
		a := randomGraph(rand.New(rand.NewSource(seed)))
		b := a.Clone()
		b.Freeze()
		return a.Digest() == b.Digest() && Signature(a) == Signature(b)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestDigestMemoizedOnFrozen(t *testing.T) {
	g, _, _, _ := slist()
	before := ReadCacheStats()
	g.Freeze()
	g.Digest()
	g.Digest()
	delta := ReadCacheStats().Sub(before)
	if delta.GraphsFrozen != 1 {
		t.Fatalf("GraphsFrozen = %d, want 1", delta.GraphsFrozen)
	}
	if delta.DigestsComputed != 1 {
		t.Fatalf("DigestsComputed = %d, want 1 (freeze-time only)", delta.DigestsComputed)
	}
	if delta.DigestCacheHits < 2 {
		t.Fatalf("DigestCacheHits = %d, want >= 2", delta.DigestCacheHits)
	}
}

func TestInternReturnsCanonicalInstance(t *testing.T) {
	a, _, _, _ := dlist(true)
	b, _, _, _ := dlist(true)
	ia := Intern(a)
	ib := Intern(b)
	if ia != ib {
		t.Fatal("interning two structurally identical graphs must return one instance")
	}
	if !ia.Frozen() {
		t.Fatal("interned graphs must be frozen")
	}
	c, _, _, _ := slist()
	if Intern(c) == ia {
		t.Fatal("structurally different graphs must not intern to the same instance")
	}
}

// internHeld interns a chain and checks that an equal-digest twin
// interns to it while it is held. Only the digest escapes, so the
// canonical instance is unreachable once internHeld returns.
//
//go:noinline
func internHeld(t *testing.T, pvar string, length int) Digest {
	g1 := Intern(buildChain(pvar, length))
	if Intern(buildChain(pvar, length)) != g1 {
		t.Fatal("an equal-digest graph must intern to the held canonical instance")
	}
	return g1.Digest()
}

// TestInternIsWeak pins the intern table's retention contract: a
// canonical instance stays canonical while something outside the table
// holds it, the table alone does not keep it alive, and a shard that
// reaches its cap sheds dead entries before it touches live ones.
func TestInternIsWeak(t *testing.T) {
	d := internHeld(t, "weak", 3)
	runtime.GC()
	runtime.GC()
	g3 := buildChain("weak", 3)
	if Intern(g3) != g3 {
		t.Fatal("after the canonical instance was collected, the next equal-digest graph must become canonical")
	}
	if g3.Digest() != d {
		t.Fatal("digest changed across interns")
	}

	// Fill the shard of a held graph with synthetic entries whose
	// graphs are garbage; the insert that finds the shard full must
	// drop those and keep the held one.
	keep := Intern(buildChain("full", 2))
	s := internShard(keep.Digest())
	synth := func(i int) Digest {
		e := keep.Digest()
		e[1], e[2], e[3], e[15] = byte(i), byte(i>>8), byte(i>>16), 0xa5
		return e
	}
	fill := func(hold bool) []*Graph {
		var held []*Graph
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := 0; len(s.tab) < internShardCap; i++ {
			g := NewGraph()
			s.internLocked(g, synth(i), nil)
			if hold {
				held = append(held, g)
			}
		}
		return held
	}
	trigger := func(i int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.internLocked(NewGraph(), synth(1<<20+i), nil)
	}

	fill(false)
	runtime.GC()
	runtime.GC()
	trigger(0)
	if n := internShardLen(keep.Digest()); n >= internShardCap/2 {
		t.Fatalf("full shard kept %d entries after its dead ones were collected", n)
	}
	if Intern(buildChain("full", 2)) != keep {
		t.Fatal("a full shard dropped a live canonical instance")
	}

	// A shard full of live graphs is still bounded: it resets wholesale.
	held := fill(true)
	trigger(1)
	if n := internShardLen(keep.Digest()); n != 1 {
		t.Fatalf("shard full of live graphs holds %d entries after an insert, want a reset to 1", n)
	}
	runtime.KeepAlive(held)
}

func TestDigestStringIsHex(t *testing.T) {
	g, _, _, _ := dlist(false)
	d := g.Digest()
	s := d.String()
	if len(s) != 32 {
		t.Fatalf("digest string length = %d, want 32 hex chars (16 bytes)", len(s))
	}
	if s != hex.EncodeToString(d[:]) {
		t.Fatalf("digest string %s is not the hex form of %x", s, d[:])
	}
}

func TestDigestLessIsStrictOrder(t *testing.T) {
	a, _, _, _ := dlist(true)
	b, _, _, _ := slist()
	da, db := a.Digest(), b.Digest()
	if da.Less(da) {
		t.Fatal("Less must be irreflexive")
	}
	if da.Less(db) == db.Less(da) {
		t.Fatal("distinct digests must be strictly ordered")
	}
}
