package triage

import (
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// hubRelinkSrc is the undistilled reproducer of the L1 hub-rotation
// soundness gap: a hub with two selectors into one target, a loop that
// links back into the hub and rotates `p = q`. A PRUNE that let a
// definite link out of an unanchored JOIN copy evict its siblings
// yielded an RSRSG that missed reachable heaps; the current engine
// covers them. The committed corpus case
// internal/concrete/testdata/hub_rotation.c is this program after
// Shrink.
const hubRelinkSrc = `
struct node { int v; struct node *nxt; struct node *prv; };

void main(void) {
    struct node *h;
    struct node *p;
    struct node *q;
    h = malloc(sizeof(struct node));
    p = malloc(sizeof(struct node));
    h->nxt = p;
    h->prv = p;
    while (cond) {
        q = malloc(sizeof(struct node));
        q->nxt = h;
        p->nxt = q;
        h->prv = q;
        p = q;
    }
}
`

func compileSrc(t *testing.T, src string) *ir.Program {
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

func fixedOpts() analysis.Options {
	return analysis.Options{Level: rsg.L1, MaxVisits: 50000}
}

// hubRelinkStmt returns the ID of the hub re-link `h->prv = q` inside
// a loop, or -1 when the program has none.
func hubRelinkStmt(prog *ir.Program) int {
	for id := range prog.Stmts {
		if prog.InLoop(id) && prog.Stmt(id).String() == "h->prv = q" {
			return id
		}
	}
	return -1
}

// TestExplainNamesLegacyFailure drives the explainer over an unsound
// result of the hub-rotation kind — the fixed engine's result with
// graphs dropped from the hub re-link's out-state: the report must
// name the failing statement and the node property that rejected the
// nearest embedding, and the DOT pair must carry both clusters.
func TestExplainNamesLegacyFailure(t *testing.T) {
	prog := compileSrc(t, hubRelinkSrc)
	res, err := analysis.Run(prog, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	id := hubRelinkStmt(prog)
	if id < 0 || res.Out[id].Len() < 2 {
		t.Fatalf("no hub re-link with graphs to drop (statement %d)", id)
	}
	// Keep only the first member graph (in digest order): a deliberately
	// unsound result of the hub-rotation bug's shape, an RSRSG that
	// drops reachable configurations.
	kept := rsrsg.New()
	kept.Add(res.Out[id].Graphs()[0])
	res.Out[id] = kept
	rep, err := Explain(prog, res, 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("truncated result still covers the hub-rotation heaps; the explainer has nothing to explain")
	}
	if rep.Fail.StmtID != id {
		t.Errorf("failure reported at statement %d, want the truncated statement %d", rep.Fail.StmtID, id)
	}
	text := rep.Text()
	if !strings.Contains(text, rep.Fail.Stmt) {
		t.Errorf("report does not name the failing statement %q:\n%s", rep.Fail.Stmt, text)
	}
	if !strings.Contains(text, "statement context:") || !strings.Contains(text, ">>") {
		t.Errorf("report lacks the statement context:\n%s", text)
	}
	nearest := rep.Fail.Nearest()
	if nearest == nil && !rep.Fail.EmptySet && len(rep.Fail.Graphs) > 0 {
		t.Fatalf("no nearest RSG in a non-empty failure")
	}
	if nearest != nil {
		if nearest.Headline.Kind == "" {
			t.Errorf("nearest RSG has no rejecting property")
		}
		if !strings.Contains(text, string(nearest.Headline.Kind)) {
			t.Errorf("report does not name the rejecting property %s:\n%s", nearest.Headline.Kind, text)
		}
	}
	dot := rep.DOT()
	if !strings.Contains(dot, "cluster_heap") {
		t.Errorf("DOT pair lacks the concrete-heap cluster:\n%s", dot)
	}
	if nearest != nil && !strings.Contains(dot, "cluster_nearest") {
		t.Errorf("DOT pair lacks the nearest-RSG cluster:\n%s", dot)
	}
}

// TestFixedEngineCoversHubRelink pins the fix: the same program under
// the current engine has no cover failure at any level.
func TestFixedEngineCoversHubRelink(t *testing.T) {
	prog := compileSrc(t, hubRelinkSrc)
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		res, err := analysis.Run(prog, analysis.Options{Level: lvl, MaxVisits: 50000})
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		rep, err := Explain(prog, res, 25, 42)
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		if rep != nil {
			t.Fatalf("%s: unexpected cover failure:\n%s", lvl, rep.Text())
		}
	}
}

// hubRelinkInLoop is a synthetic shrinking predicate: the candidate
// compiles and still re-links the hub (`h->prv = q`) inside a loop.
// It keeps the shrinker's contract checkable without an analysis run
// per candidate.
func hubRelinkInLoop(src string) bool {
	file, err := cminic.Parse(src)
	if err != nil {
		return false
	}
	prog, err := ir.LowerMain(file)
	return err == nil && hubRelinkStmt(prog) >= 0
}

// TestShrinkerProperties is the shrinker's contract on the hub-rotation
// program under a synthetic predicate: the output still satisfies the
// predicate, parses, is strictly smaller than the input in statements,
// and is 1-minimal — dropping any single remaining statement breaks
// the predicate.
func TestShrinkerProperties(t *testing.T) {
	out, err := Shrink(hubRelinkSrc, hubRelinkInLoop)
	if err != nil {
		t.Fatal(err)
	}
	if !hubRelinkInLoop(out) {
		t.Fatalf("shrunk program no longer satisfies the predicate:\n%s", out)
	}
	nIn, err := StmtCount(hubRelinkSrc)
	if err != nil {
		t.Fatal(err)
	}
	nOut, err := StmtCount(out)
	if err != nil {
		t.Fatalf("shrunk program does not parse: %v\n%s", err, out)
	}
	if nOut >= nIn {
		t.Fatalf("shrunk program did not shrink: %d -> %d statements\n%s", nIn, nOut, out)
	}
	file, err := cminic.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nOut; i++ {
		if cand := emitWithout(file, i, i+1); hubRelinkInLoop(cand) {
			t.Errorf("not 1-minimal: still satisfies the predicate without statement %d:\n%s", i, cand)
		}
	}
	t.Logf("shrunk %d -> %d statements:\n%s", nIn, nOut, out)
}

// TestHubRotationCorpusBeforeAfter pins the committed corpus case: the
// fixed engine covers it (it is also swept by TestCorpusSoundness at
// L1/L2/L3).
func TestHubRotationCorpusBeforeAfter(t *testing.T) {
	b, err := os.ReadFile("../concrete/testdata/hub_rotation.c")
	if err != nil {
		t.Fatal(err)
	}
	if SoundnessPredicate(fixedOpts(), 10, 42)(string(b)) {
		t.Fatalf("hub_rotation.c fails the fixed engine")
	}
}
