package rsg

import "testing"

func TestDivideNullBranchOnly(t *testing.T) {
	// x's node has no sel links and sel not definite: single NULL branch.
	g := oneNode("t", "x")
	divs := DivideSym(g, PvarSym("x"), SelSym("s"))
	if len(divs) != 1 || divs[0].Target != -1 {
		t.Fatalf("divs = %+v, want one NULL branch", divs)
	}
}

func TestDivideDefiniteNoNullBranch(t *testing.T) {
	g, _, _, _ := slist()
	divs := DivideSym(g, PvarSym("head"), SelSym("nxt"))
	for _, d := range divs {
		if d.Target == -1 {
			t.Error("nxt is definite in SELOUT(head): no NULL branch expected")
		}
	}
	if len(divs) != 2 {
		t.Errorf("expected 2 branches (middle summary, tail), got %d", len(divs))
	}
}

func TestDividePossibleSelAddsNullBranch(t *testing.T) {
	// h -s-> a with s only possible: target branch + NULL branch.
	g := NewGraph()
	h := NewNode("t")
	h.Singleton = true
	h.MarkPossibleOut("s")
	g.AddNode(h)
	a := NewNode("t")
	a.MarkPossibleIn("s")
	g.AddNode(a)
	g.AddLink(h.ID, "s", a.ID)
	g.SetPvar("x", h.ID)

	divs := DivideSym(g, PvarSym("x"), SelSym("s"))
	var nullBranch, targetBranch bool
	for _, d := range divs {
		if d.Target == -1 {
			nullBranch = true
			// The NULL branch drops the possible-out marker and the
			// unreachable target.
			if d.G.Node(a.ID) != nil {
				t.Errorf("NULL branch must collect the unreachable target:\n%s", d.G)
			}
		} else {
			targetBranch = true
			// In the kept branch the reference is definite.
			if !d.G.Node(h.ID).SelOut.Has("s") {
				t.Error("kept branch must promote s to definite SELOUT")
			}
		}
	}
	if !nullBranch || !targetBranch {
		t.Errorf("want both branches, got %+v", divs)
	}
}

func TestDivideOnNullPvar(t *testing.T) {
	g := NewGraph()
	if divs := DivideSym(g, PvarSym("x"), SelSym("s")); divs != nil {
		t.Errorf("dividing through a NULL pvar must yield nothing, got %d", len(divs))
	}
}

func TestDivideDoesNotMutateInput(t *testing.T) {
	g, _, _, _ := dlist(true)
	sig := Signature(g)
	DivideSym(g, PvarSym("x"), SelSym("nxt"))
	if Signature(g) != sig {
		t.Error("DivideSym must not mutate its input")
	}
}

func TestMaterializeSingletonIsIdentity(t *testing.T) {
	g := NewGraph()
	a := NewNode("t")
	a.Singleton = true
	a.MarkDefiniteOut("s")
	g.AddNode(a)
	b := NewNode("t")
	b.Singleton = true
	b.MarkDefiniteIn("s")
	g.AddNode(b)
	g.AddLink(a.ID, "s", b.ID)
	g.SetPvar("x", a.ID)

	if got := MaterializeSym(g, a.ID, SelSym("s")); got != b.ID {
		t.Errorf("materializing a singleton target must return it, got n%d", got)
	}
	if g.NumNodes() != 2 {
		t.Error("no node may be created")
	}
}

func TestMaterializeSummaryProperties(t *testing.T) {
	g, h, m, _ := slist()
	// DIVIDE first: keep only the head -> middle branch.
	divs := DivideSym(g, PvarSym("head"), SelSym("nxt"))
	var branch *Graph
	for _, d := range divs {
		if d.Target == m.ID {
			branch = d.G
		}
	}
	if branch == nil {
		t.Fatal("no branch targeting the middle summary")
	}
	nm := MaterializeSym(branch, h.ID, SelSym("nxt"))
	if nm == m.ID {
		t.Fatal("expected a fresh materialized node")
	}
	n := branch.Node(nm)
	if !n.Singleton {
		t.Error("materialized node must be singleton")
	}
	if !n.SelIn.Has("nxt") {
		t.Error("materialized node definitely has the triggering reference")
	}
	// The summary keeps representing the other locations.
	if branch.Node(m.ID) == nil {
		t.Error("the remainder summary must survive")
	}
	// x's reference is retargeted exclusively.
	ts := branch.Targets(h.ID, "nxt")
	if len(ts) != 1 || ts[0] != nm {
		t.Errorf("head nxt targets = %v, want [%d]", ts, nm)
	}
	// SHSEL(m, nxt) = false: no other nxt link may enter the
	// materialized node.
	if srcs := branch.Sources(nm, "nxt"); len(srcs) != 1 || srcs[0] != h.ID {
		t.Errorf("materialized node nxt sources = %v, want only the head", srcs)
	}
}

func TestMaterializePanicsWithoutDivision(t *testing.T) {
	g := NewGraph()
	a := NewNode("t")
	a.Singleton = true
	g.AddNode(a)
	b := g.AddNode(NewNode("t"))
	c := g.AddNode(NewNode("t"))
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(a.ID, "s", c.ID)
	g.SetPvar("x", a.ID)
	defer func() {
		if recover() == nil {
			t.Error("MaterializeSym with two candidate targets must panic (divide first)")
		}
	}()
	MaterializeSym(g, a.ID, SelSym("s"))
}
