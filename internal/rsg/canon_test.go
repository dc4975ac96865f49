package rsg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignatureIgnoresNodeIDs(t *testing.T) {
	// Build the same structure twice with different insertion orders.
	build := func(reverse bool) *Graph {
		g := NewGraph()
		var a, b *Node
		if reverse {
			b = g.AddNode(NewNode("t"))
			a = g.AddNode(NewNode("t"))
		} else {
			a = g.AddNode(NewNode("t"))
			b = g.AddNode(NewNode("t"))
		}
		a.Singleton = true
		a.MarkDefiniteOut("s")
		b.MarkDefiniteIn("s")
		g.SetPvar("x", a.ID)
		g.AddLink(a.ID, "s", b.ID)
		return g
	}
	if Signature(build(false)) != Signature(build(true)) {
		t.Error("signature must not depend on node insertion order")
	}
	if build(false).Digest() != build(true).Digest() {
		t.Error("hash must not depend on node insertion order")
	}
}

func TestSignatureDistinguishesProperties(t *testing.T) {
	g1 := oneNode("t", "x")
	g2 := oneNode("t", "x")
	g2.PvarTarget("x").Shared = true
	if Signature(g1) == Signature(g2) {
		t.Error("SHARED must be part of the signature")
	}
	g3 := oneNode("t", "x")
	g3.PvarTarget("x").Touch.Add("p")
	if Signature(g1) == Signature(g3) {
		t.Error("TOUCH must be part of the signature")
	}
	g4 := oneNode("u", "x")
	if Signature(g1) == Signature(g4) {
		t.Error("TYPE must be part of the signature")
	}
}

func TestSignatureDistinguishesLinks(t *testing.T) {
	g1, _, _, _ := dlist(true)
	g2, n1, n2, _ := dlist(true)
	g2.RemoveLink(n1.ID, "nxt", n2.ID)
	if Signature(g1) == Signature(g2) {
		t.Error("links must be part of the signature")
	}
}

func TestSignatureStableUnderClone(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		return Signature(g) == Signature(g.Clone())
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// randomGraph builds a small random RSG with pvars anchoring it.
func randomGraph(r *rand.Rand) *Graph {
	g := NewGraph()
	n := 2 + r.Intn(5)
	nodes := make([]*Node, n)
	types := []string{"a", "b"}
	sels := []string{"s", "u"}
	for i := range nodes {
		nd := NewNode(types[r.Intn(len(types))])
		nd.Singleton = r.Intn(2) == 0
		if r.Intn(3) == 0 {
			nd.Shared = true
		}
		g.AddNode(nd)
		nodes[i] = nd
	}
	g.SetPvar("p", nodes[0].ID)
	if r.Intn(2) == 0 {
		g.SetPvar("q", nodes[r.Intn(n)].ID)
	}
	links := r.Intn(2 * n)
	for i := 0; i < links; i++ {
		src := nodes[r.Intn(n)]
		dst := nodes[r.Intn(n)]
		sel := sels[r.Intn(len(sels))]
		g.AddLink(src.ID, sel, dst.ID)
		src.MarkPossibleOut(sel)
		dst.MarkPossibleIn(sel)
	}
	return g
}

func TestCanonicalOrderCoversAllNodes(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		cs := getCanonScratch()
		canonicalOrder(g, cs)
		order := make([]NodeID, len(cs.order))
		for i, pos := range cs.order {
			order[i] = g.ids[pos]
		}
		putCanonScratch(cs)
		if len(order) != g.NumNodes() {
			return false
		}
		seen := map[NodeID]bool{}
		for _, id := range order {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
