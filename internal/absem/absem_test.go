package absem

import (
	"testing"

	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

func ctx(lvl rsg.Level) *Context {
	return &Context{Level: lvl, Diags: &Diagnostics{}}
}

func single(g *rsg.Graph) *rsrsg.Set {
	s := rsrsg.New()
	s.Add(g)
	return s
}

func empty() *rsrsg.Set {
	return single(rsg.NewGraph())
}

// stmt is one statement's per-graph transfer, built from names by the
// constructors below and interned into the symbol-addressed API.
type stmt func(c *Context, g *rsg.Graph) []*rsg.Graph

func nilStmt(x string) stmt {
	return func(c *Context, g *rsg.Graph) []*rsg.Graph { return StepNilSym(c, g, rsg.PvarSym(x)) }
}

func mallocStmt(x, typ string) stmt {
	return func(c *Context, g *rsg.Graph) []*rsg.Graph {
		return StepMallocSym(c, g, rsg.PvarSym(x), rsg.TypeSym(typ))
	}
}

func copyStmt(x, y string) stmt {
	return func(c *Context, g *rsg.Graph) []*rsg.Graph {
		return StepCopySym(c, g, rsg.PvarSym(x), rsg.PvarSym(y))
	}
}

func selNilStmt(x, sel string) stmt {
	return func(c *Context, g *rsg.Graph) []*rsg.Graph {
		return StepSelNilSym(c, g, rsg.PvarSym(x), rsg.SelSym(sel))
	}
}

func selCopyStmt(x, sel, y string) stmt {
	return func(c *Context, g *rsg.Graph) []*rsg.Graph {
		return StepSelCopySym(c, g, rsg.PvarSym(x), rsg.SelSym(sel), rsg.PvarSym(y))
	}
}

func loadStmt(x, y, sel string) stmt {
	return func(c *Context, g *rsg.Graph) []*rsg.Graph {
		return StepLoadSym(c, g, rsg.PvarSym(x), rsg.PvarSym(y), rsg.SelSym(sel))
	}
}

// apply runs the statements in order over the RSRSG, mapping each
// per-graph transfer over the set and reducing.
func apply(c *Context, in *rsrsg.Set, stmts ...stmt) *rsrsg.Set {
	for _, st := range stmts {
		in = mapStep(c, in, func(g *rsg.Graph) []*rsg.Graph { return st(c, g) })
	}
	return in
}

// buildList executes, abstractly, the statement sequence that builds a
// singly-linked list of unbounded length:
//
//	head = malloc; head->nxt = NULL; p = head;
//	loop { q = malloc; q->nxt = NULL; p->nxt = q; p = q; }
//
// iterating the loop body until the RSRSG reaches a fixed point, and
// returns the final set.
func buildList(t *testing.T, c *Context) *rsrsg.Set {
	t.Helper()
	s := apply(c, empty(), mallocStmt("head", "node"), selNilStmt("head", "nxt"), copyStmt("p", "head"))

	body := func(in *rsrsg.Set) *rsrsg.Set {
		return apply(c, in, mallocStmt("q", "node"), selNilStmt("q", "nxt"),
			selCopyStmt("p", "nxt", "q"), copyStmt("p", "q"), nilStmt("q"))
	}
	// Fixed point over "zero or more iterations".
	cur := s
	for i := 0; i < 50; i++ {
		next := rsrsg.Union(c.Level, cur, body(cur), c.Opts)
		if next.Equal(cur) {
			return cur
		}
		cur = next
	}
	t.Fatalf("list construction did not reach a fixed point in 50 iterations")
	return nil
}

func TestMallocCreatesSingleton(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("x", "node"))
	if s.Len() != 1 {
		t.Fatalf("got %d graphs, want 1", s.Len())
	}
	g := s.Graphs()[0]
	n := g.PvarTarget("x")
	if n == nil {
		t.Fatal("x does not reference the fresh node")
	}
	if !n.Singleton || n.Shared || n.Type != "node" {
		t.Errorf("fresh node has wrong properties: %s", n)
	}
	if g.NumNodes() != 1 || g.NumLinks() != 0 {
		t.Errorf("fresh graph should have exactly the malloc node, got:\n%s", g)
	}
}

func TestNilDropsUnreachable(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("x", "node"))
	s = apply(c, s, nilStmt("x"))
	g := s.Graphs()[0]
	if g.NumNodes() != 0 {
		t.Errorf("after x = NULL the heap node is garbage and must be collected, got:\n%s", g)
	}
}

func TestCopyAliases(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("x", "node"))
	s = apply(c, s, copyStmt("y", "x"))
	g := s.Graphs()[0]
	xt, yt := g.PvarTarget("x"), g.PvarTarget("y")
	if xt == nil || yt == nil || xt.ID != yt.ID {
		t.Fatalf("x and y must alias after x = y:\n%s", g)
	}
	if xt.Shared {
		t.Errorf("pvar references do not count toward SHARED")
	}
}

func TestSelfCopyIsIdentity(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("x", "node"))
	s2 := apply(c, s, copyStmt("x", "x"))
	if !s.Equal(s2) {
		t.Errorf("x = x must not change the RSRSG")
	}
}

func TestSelCopyLinksAndShareInfo(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("a", "node"))
	s = apply(c, s, mallocStmt("b", "node"))
	s = apply(c, s, selCopyStmt("a", "nxt", "b"))
	g := s.Graphs()[0]
	at, bt := g.PvarTarget("a"), g.PvarTarget("b")
	if !g.HasLink(at.ID, "nxt", bt.ID) {
		t.Fatalf("missing <a,nxt,b> link:\n%s", g)
	}
	if !at.SelOut.Has("nxt") {
		t.Errorf("nxt must be definite in SELOUT(a)")
	}
	if !bt.SelIn.Has("nxt") {
		t.Errorf("nxt must be definite in SELIN(b)")
	}
	if bt.Shared || bt.SharedBy("nxt") {
		t.Errorf("a single reference must not set the share attributes: %s", bt)
	}
}

func TestSelCopySharingDetected(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("a", "node"))
	s = apply(c, s, mallocStmt("b", "node"))
	s = apply(c, s, mallocStmt("t", "node"))
	s = apply(c, s, selCopyStmt("a", "nxt", "t"))
	s = apply(c, s, selCopyStmt("b", "nxt", "t"))
	g := s.Graphs()[0]
	tt := g.PvarTarget("t")
	if !tt.Shared || !tt.SharedBy("nxt") {
		t.Errorf("t is referenced twice through nxt; SHARED and SHSEL(nxt) must hold: %s", tt)
	}

	// Removing one of the two references makes the target unshared
	// again (the remaining sources are all singletons, so the analysis
	// can prove it).
	s = apply(c, s, selNilStmt("b", "nxt"))
	g = s.Graphs()[0]
	tt = g.PvarTarget("t")
	if tt.SharedBy("nxt") {
		t.Errorf("after b->nxt = NULL only one nxt reference remains: %s", tt)
	}
	if tt.Shared {
		t.Errorf("after b->nxt = NULL the node is not shared: %s", tt)
	}
}

func TestSelNilOnNullSelectorIsNoop(t *testing.T) {
	c := ctx(rsg.L1)
	s := apply(c, empty(), mallocStmt("a", "node"))
	s2 := apply(c, s, selNilStmt("a", "nxt")) // a->nxt is already NULL
	if s2.Len() != 1 {
		t.Fatalf("got %d graphs, want 1", s2.Len())
	}
	g := s2.Graphs()[0]
	if g.NumLinks() != 0 || g.NumNodes() != 1 {
		t.Errorf("a->nxt = NULL on a fresh node must keep the graph trivial:\n%s", g)
	}
}

func TestNullDereferenceDropsGraph(t *testing.T) {
	c := ctx(rsg.L1)
	s := empty()
	s2 := apply(c, s, selNilStmt("a", "nxt")) // a is NULL
	if s2.Len() != 0 {
		t.Fatalf("dereferencing NULL must produce no successor configuration")
	}
	if c.Diags.NullDerefs != 1 {
		t.Errorf("NullDerefs = %d, want 1", c.Diags.NullDerefs)
	}
}

func TestLoadMaterializesTraversal(t *testing.T) {
	c := ctx(rsg.L1)
	s := buildList(t, c)

	// Traverse one step: p2 = head->nxt.
	s2 := apply(c, s, loadStmt("p2", "head", "nxt"))
	if s2.Len() == 0 {
		t.Fatal("traversal produced no graphs")
	}
	for _, g := range s2.Graphs() {
		p2 := g.PvarTarget("p2")
		if p2 == nil {
			continue // branch where head->nxt == NULL (single-element list)
		}
		if !p2.Singleton {
			t.Errorf("p2 must reference a materialized singleton: %s\n%s", p2, g)
		}
		if p2.SharedBy("nxt") {
			t.Errorf("list element must not be shared by nxt: %s", p2)
		}
	}
}

func TestListFixedPointShape(t *testing.T) {
	c := ctx(rsg.L1)
	s := buildList(t, c)

	if s.Len() == 0 {
		t.Fatal("empty RSRSG after list construction")
	}
	if s.Len() > 4 {
		t.Errorf("list fixed point should stay small, got %d graphs", s.Len())
	}
	for _, g := range s.Graphs() {
		for _, n := range g.Nodes() {
			if n.Shared {
				t.Errorf("singly-linked list nodes are never shared: %s\n%s", n, g)
			}
			if n.SharedBy("nxt") {
				t.Errorf("list nodes are never shared by nxt: %s\n%s", n, g)
			}
		}
		// head references the first element.
		if g.PvarTarget("head") == nil {
			t.Errorf("head lost its reference:\n%s", g)
		}
	}
}

func TestTouchTracking(t *testing.T) {
	c := ctx(rsg.L3)
	c.InLoop = true
	c.Induction = rsg.NewPvarSet("p")

	s := apply(c, empty(), mallocStmt("head", "node"))
	s = apply(c, s, copyStmt("p", "head"))
	g := s.Graphs()[0]
	if !g.PvarTarget("p").Touch.Has("p") {
		t.Errorf("p = head inside a loop must record the visit of induction pvar p: %s",
			g.PvarTarget("p"))
	}

	// Erasing the loop's ipvars clears the sets.
	s = EraseTouch(c, s, rsg.NewPvarSet("p"))
	g = s.Graphs()[0]
	if !g.PvarTarget("p").Touch.Empty() {
		t.Errorf("EraseTouch must clear the loop's induction pvars")
	}
}

func TestTouchIgnoredBelowL3(t *testing.T) {
	c := ctx(rsg.L2)
	c.InLoop = true
	c.Induction = rsg.NewPvarSet("p")
	s := apply(c, empty(), mallocStmt("head", "node"))
	s = apply(c, s, copyStmt("p", "head"))
	g := s.Graphs()[0]
	if !g.PvarTarget("p").Touch.Empty() {
		t.Errorf("TOUCH sets must not be built below L3")
	}
}
