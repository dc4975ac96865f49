package analysis

import (
	"testing"

	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
)

// compile parses and lowers a mini-C source.
func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	file, err := cminic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.LowerMain(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

const listBuildSrc = `
struct node { int val; struct node *nxt; };

void main(void) {
    struct node *head;
    struct node *p;
    struct node *q;
    head = malloc(sizeof(struct node));
    head->nxt = NULL;
    p = head;
    while (cond) {
        q = malloc(sizeof(struct node));
        q->nxt = NULL;
        p->nxt = q;
        p = q;
    }
}
`

func TestListBuildL1(t *testing.T) {
	prog := compile(t, listBuildSrc)
	res, err := Run(prog, Options{Level: rsg.L1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	exit := res.ExitSet()
	if exit == nil || exit.Len() == 0 {
		t.Fatal("no configuration reaches the exit")
	}
	for _, g := range exit.Graphs() {
		if g.PvarTarget("head") == nil {
			t.Errorf("head must be non-NULL at exit:\n%s", g)
		}
		for _, n := range g.Nodes() {
			if n.Shared {
				t.Errorf("list node wrongly shared: %s\n%s", n, g)
			}
			if n.SharedBy("nxt") {
				t.Errorf("list node wrongly shared by nxt: %s\n%s", n, g)
			}
		}
	}
}

const listTraverseSrc = `
struct node { int val; struct node *nxt; };

void main(void) {
    struct node *head;
    struct node *p;
    struct node *q;
    head = malloc(sizeof(struct node));
    head->nxt = NULL;
    p = head;
    while (cond) {
        q = malloc(sizeof(struct node));
        q->nxt = NULL;
        p->nxt = q;
        p = q;
    }
    p = head;
    while (p != NULL) {
        p = p->nxt;
    }
}
`

func TestListTraverseTerminates(t *testing.T) {
	prog := compile(t, listTraverseSrc)
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		res, err := Run(prog, Options{Level: lvl})
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		exit := res.ExitSet()
		if exit == nil || exit.Len() == 0 {
			t.Fatalf("%s: no configuration reaches the exit", lvl)
		}
		for _, g := range exit.Graphs() {
			// After `while (p != NULL)`, p must be NULL at exit.
			if g.PvarTarget("p") != nil {
				t.Errorf("%s: p must be NULL at exit:\n%s", lvl, g)
			}
			for _, n := range g.Nodes() {
				if n.Shared || n.SharedBy("nxt") {
					t.Errorf("%s: traversal must not introduce sharing: %s", lvl, n)
				}
			}
		}
	}
}

func TestInductionPvarsDetected(t *testing.T) {
	prog := compile(t, listTraverseSrc)
	// Loops: the build loop (p advances via p = q after q->... hmm, p
	// advances via copies from fresh mallocs, not loads: NOT induction)
	// and the traversal loop (p = p->nxt: induction).
	if len(prog.Loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(prog.Loops))
	}
	run(t, prog) // annotate via Run
	traversal := prog.Loops[1]
	if _, ok := traversal.Induction["p"]; !ok {
		t.Errorf("p must be an induction pvar of the traversal loop, got %v", traversal.Induction)
	}
	build := prog.Loops[0]
	if _, ok := build.Induction["p"]; ok {
		t.Errorf("p in the build loop is advanced by malloc+copy, not a load; got %v", build.Induction)
	}
}

func run(t *testing.T, prog *ir.Program) *Result {
	t.Helper()
	res, err := Run(prog, Options{Level: rsg.L3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

const dlistBuildSrc = `
struct elem { int val; struct elem *nxt; struct elem *prv; };

void main(void) {
    struct elem *first;
    struct elem *last;
    struct elem *e;
    first = malloc(sizeof(struct elem));
    first->nxt = NULL;
    first->prv = NULL;
    last = first;
    while (cond) {
        e = malloc(sizeof(struct elem));
        e->nxt = NULL;
        e->prv = last;
        last->nxt = e;
        last = e;
    }
}
`

func TestDoublyListBuild(t *testing.T) {
	prog := compile(t, dlistBuildSrc)
	res, err := Run(prog, Options{Level: rsg.L1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	exit := res.ExitSet()
	if exit.Len() == 0 {
		t.Fatal("no configuration reaches the exit")
	}
	for _, g := range exit.Graphs() {
		for _, n := range g.Nodes() {
			// A doubly-linked list shares no location through a single
			// selector (each element has exactly one nxt-in and one
			// prv-in reference).
			if n.SharedBy("nxt") {
				t.Errorf("wrongly shared by nxt: %s\n%s", n, g)
			}
			if n.SharedBy("prv") {
				t.Errorf("wrongly shared by prv: %s\n%s", n, g)
			}
		}
	}
}

func TestBudgetAborts(t *testing.T) {
	prog := compile(t, dlistBuildSrc)
	_, err := Run(prog, Options{Level: rsg.L1, NodeBudget: 1})
	if err == nil {
		t.Fatal("expected budget-exceeded error")
	}
}

// TestRunLevelReportsHeapMetrics checks that RunLevel's runtime/metrics
// readings are filled in: a level that allocates reports allocation
// bytes, objects and a live-heap peak.
func TestRunLevelReportsHeapMetrics(t *testing.T) {
	rep := RunLevel(compile(t, listBuildSrc), rsg.L1, nil, Options{})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.AllocBytes == 0 || rep.AllocObjects == 0 || rep.PeakHeapBytes == 0 {
		t.Errorf("alloc=%d B, %d objects, peak heap %d B: want all nonzero",
			rep.AllocBytes, rep.AllocObjects, rep.PeakHeapBytes)
	}
	if rep.AllocObjects > rep.AllocBytes {
		t.Errorf("%d objects in %d bytes", rep.AllocObjects, rep.AllocBytes)
	}
}
