package rsg

import "testing"

// These tests walk the paper's Fig. 1 example step by step: the
// abstract interpretation of "x->nxt = NULL" on a doubly-linked list of
// two or more elements.

// TestFigure1Divide checks Fig. 1(b): DIVIDE(rsg, x, nxt) produces one
// graph per destination of x->nxt, each with a single nxt link out of
// n1. No NULL branch appears because nxt is definite in SELOUT(n1).
func TestFigure1Divide(t *testing.T) {
	g, n1, n2, n3 := dlist(true)

	divs := DivideSym(g, PvarSym("x"), SelSym("nxt"))
	if len(divs) != 2 {
		t.Fatalf("DivideSym produced %d graphs, want 2", len(divs))
	}
	byTarget := map[NodeID]*Graph{}
	for _, d := range divs {
		if d.Target < 0 {
			t.Fatalf("unexpected NULL branch: nxt is definite in SELOUT(n1)")
		}
		byTarget[d.Target] = d.G
	}
	if _, ok := byTarget[n2.ID]; !ok {
		t.Fatalf("missing division branch targeting the middle summary n%d", n2.ID)
	}
	if _, ok := byTarget[n3.ID]; !ok {
		t.Fatalf("missing division branch targeting the tail n%d", n3.ID)
	}

	for target, gi := range byTarget {
		targets := gi.Targets(n1.ID, "nxt")
		if len(targets) != 1 || targets[0] != target {
			t.Errorf("branch %d: x's node has nxt targets %v, want [%d]", target, targets, target)
		}
	}
}

// TestFigure1PruneMiddleBranch checks Fig. 1(c) for the branch where
// x->nxt keeps the middle summary: the link <n3,prv,n1> is removed by
// the cycle-link rule (following prv then nxt from n3 no longer reaches
// n3 through n1).
func TestFigure1PruneMiddleBranch(t *testing.T) {
	g, n1, n2, n3 := dlist(true)
	divs := DivideSym(g, PvarSym("x"), SelSym("nxt"))
	var branch *Graph
	for _, d := range divs {
		if d.Target == n2.ID {
			branch = d.G
		}
	}
	if branch == nil {
		t.Fatal("no branch targeting n2")
	}
	// DIVIDE already pruned: the stale tail-to-head back link is gone.
	if branch.HasLink(n3.ID, "prv", n1.ID) {
		t.Errorf("<n3,prv,n1> survived pruning; cycle links should remove it")
	}
	// The real back link of the chosen branch remains.
	if !branch.HasLink(n2.ID, "prv", n1.ID) {
		t.Errorf("<n2,prv,n1> should survive: it closes the <nxt,prv> cycle of n1")
	}
}

// TestFigure1PruneTailBranch checks Fig. 1(c) for the two-element
// branch (x->nxt = n3): <n2,prv,n1> and <n2,nxt,n3> and <n3,prv,n2>
// disappear and the unreachable middle summary n2 is collected.
func TestFigure1PruneTailBranch(t *testing.T) {
	g, n1, n2, n3 := dlist(true)
	divs := DivideSym(g, PvarSym("x"), SelSym("nxt"))
	var branch *Graph
	for _, d := range divs {
		if d.Target == n3.ID {
			branch = d.G
		}
	}
	if branch == nil {
		t.Fatal("no branch targeting n3")
	}
	if branch.Node(n2.ID) != nil {
		t.Errorf("middle summary n2 should be pruned away in the two-element branch:\n%s", branch)
	}
	if !branch.HasLink(n3.ID, "prv", n1.ID) {
		t.Errorf("<n3,prv,n1> must survive: the two-element list closes its cycle through it")
	}
	if branch.HasLink(n1.ID, "nxt", n2.ID) {
		t.Errorf("division should have removed <n1,nxt,n2> in this branch")
	}
}

// TestFigure1Materialize checks Fig. 1(d): materializing the single
// element referenced by x->nxt out of the middle summary n2 yields a
// singleton n4 whose spurious links are pruned away by cycle-link
// reasoning.
func TestFigure1Materialize(t *testing.T) {
	g, n1, n2, n3 := dlist(true)
	divs := DivideSym(g, PvarSym("x"), SelSym("nxt"))
	var branch *Graph
	for _, d := range divs {
		if d.Target == n2.ID {
			branch = d.G
		}
	}
	if branch == nil {
		t.Fatal("no branch targeting n2")
	}

	n4 := MaterializeSym(branch, n1.ID, SelSym("nxt"))
	if n4 == n2.ID {
		t.Fatalf("materialization should create a fresh node, got the summary back")
	}
	if !branch.Node(n4).Singleton {
		t.Errorf("materialized node must be a singleton")
	}
	if !Prune(branch) {
		t.Fatalf("branch became infeasible after materialization")
	}

	// x->nxt references exactly the materialized node.
	targets := branch.Targets(n1.ID, "nxt")
	if len(targets) != 1 || targets[0] != n4 {
		t.Fatalf("x's node nxt targets = %v, want [%d]", targets, n4)
	}
	// The materialized element points back at the head...
	if !branch.HasLink(n4, "prv", n1.ID) {
		t.Errorf("missing <n4,prv,n1>")
	}
	// ...and not at the remaining middles or itself.
	if branch.HasLink(n4, "prv", n2.ID) {
		t.Errorf("spurious <n4,prv,n2> survived pruning:\n%s", branch)
	}
	if branch.HasLink(n4, "prv", n4) {
		t.Errorf("spurious <n4,prv,n4> survived pruning:\n%s", branch)
	}
	// The summary keeps only its own cycle-consistent links: no middle
	// may reference the head anymore.
	if branch.HasLink(n2.ID, "prv", n1.ID) {
		t.Errorf("spurious <n2,prv,n1> survived pruning:\n%s", branch)
	}
	// Forward chain stays intact: n4 -nxt-> {n2,n3} (one-or-more
	// middles remain possible), n2 -nxt-> {n2,n3}.
	if !branch.HasLink(n4, "nxt", n2.ID) || !branch.HasLink(n4, "nxt", n3.ID) {
		t.Errorf("materialized node lost its forward links:\n%s", branch)
	}
}
