package analysis_test

// Reproduction tests for the paper's figures and the Sect. 5
// progressive-analysis narrative. The heavyweight Barnes-Hut runs are
// skipped with -short.

import (
	"os"
	"testing"

	"repro/internal/absem"
	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/checker"
	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

func compileKernel(t testing.TB, name string) (*ir.Program, *benchprog.Kernel) {
	t.Helper()
	k := benchprog.ByName(name)
	if k == nil {
		t.Fatalf("unknown kernel %s", name)
	}
	prog, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog, k
}

func compileSrc(t testing.TB, src string) *ir.Program {
	t.Helper()
	f, err := cminic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.LowerMain(f)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// firstNxtNil pushes an RSRSG through the destructive sentence
// "first->nxt = NULL": the full Fig. 2 per-sentence pipeline (division,
// pruning, materialization, interpretation, compression and union).
func firstNxtNil(lvl rsg.Level, in *rsrsg.Set) *rsrsg.Set {
	ctx := &absem.Context{Level: lvl}
	first, nxt := rsg.PvarSym("first"), rsg.SelSym("nxt")
	var out []*rsg.Graph
	for _, g := range in.Graphs() {
		out = append(out, absem.StepSelNilSym(ctx, g, first, nxt)...)
	}
	return rsrsg.FromGraphs(lvl, out, rsrsg.Options{})
}

// TestFigure2PipelineCounts traces the Fig. 2 per-sentence pipeline: a
// destructive statement first divides the input RSGs (count can grow),
// then compression and the RSG union shrink the result back down.
func TestFigure2PipelineCounts(t *testing.T) {
	prog := compileSrc(t, `
struct elem { int val; struct elem *nxt; struct elem *prv; };
void main(void) {
    struct elem *first;
    struct elem *last;
    struct elem *e;
    first = malloc(sizeof(struct elem));
    first->nxt = NULL;
    first->prv = NULL;
    last = first;
    while (more) {
        e = malloc(sizeof(struct elem));
        e->nxt = NULL;
        e->prv = last;
        last->nxt = e;
        last = e;
    }
    e = NULL;
}`)
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1})
	if err != nil {
		t.Fatal(err)
	}
	in := res.ExitSet()
	if in.Len() == 0 {
		t.Fatal("empty input RSRSG")
	}
	out := firstNxtNil(rsg.L1, in)
	if out.Len() == 0 {
		t.Fatal("pipeline produced no graphs")
	}
	// The union keeps the RSRSG practicable: the output stays within a
	// small factor of the input even though division multiplies the
	// intermediate graphs.
	if out.Len() > 4*in.Len()+4 {
		t.Errorf("union failed to reduce: %d in, %d out", in.Len(), out.Len())
	}
	// Soundness smoke check: first must still reference its node in
	// every output graph (the statement only cuts first->nxt).
	for _, g := range out.Graphs() {
		if g.PvarTarget("first") == nil {
			t.Errorf("first lost its reference:\n%s", g)
		}
		if len(g.Targets(g.PvarTarget("first").ID, "nxt")) != 0 {
			t.Errorf("first->nxt must be NULL after the statement:\n%s", g)
		}
	}
}

// TestProgressiveEscalationSparse verifies the Sect. 5 narrative for
// the sparse codes: accurate at L1, so the progressive driver stops
// after one level.
func TestProgressiveEscalationSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("sparse kernels take ~1 min")
	}
	prog, k := compileKernel(t, "matvec")
	pres := analysis.Progressive(prog, k.Goals, analysis.Options{})
	if got := pres.AchievedLevel(); got != rsg.L1 {
		t.Errorf("matvec should be accurate at L1, achieved %s\n%s", got, pres.Summary())
	}
	if len(pres.Levels) != 1 {
		t.Errorf("driver ran %d levels, want 1", len(pres.Levels))
	}
}

// TestFigure3BarnesHutL1 checks the L1 state of the Sect. 5.1 case
// study: the structure is captured (octree, body list, stack), the
// octree nodes are shared through the stack's node selector, and the
// TOUCH-based step (iii) goal cannot be established yet.
func TestFigure3BarnesHutL1(t *testing.T) {
	if testing.Short() {
		t.Skip("Barnes-Hut L1 takes ~1 min")
	}
	prog, k := compileKernel(t, "barneshut")
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1})
	if err != nil {
		t.Fatal(err)
	}
	// The octree is genuinely shared through `node` (children entries
	// and stack frames both reference onodes) — Fig. 3's n2/n3/n4
	// sharing.
	sharedOnode := false
	for _, g := range res.ExitSet().Graphs() {
		for _, n := range g.Nodes() {
			if n.Type == "onode" && n.SharedBy("node") {
				sharedOnode = true
			}
		}
	}
	if !sharedOnode {
		t.Error("octree nodes should appear shared by `node` (stack + children)")
	}
	// The step (iii) goal needs TOUCH, i.e. L3.
	for _, g := range k.Goals {
		if ul, ok := g.(checker.UnsharedDuringLoop); ok {
			if met, _ := ul.Met(res); met {
				t.Error("the TOUCH goal must not be established at L1")
			}
		}
	}
	// SHSEL(body-list node, body) stays false: no two octree leaves
	// reference the same body. (The paper's own L1 is imprecise here
	// and only proves it at L2; see EXPERIMENTS.md.)
	goal := checker.NoSharedSelector{Struct: "body", Sel: "body"}
	if met, detail := goal.Met(res); !met {
		t.Errorf("SHSEL(body) expected false: %s", detail)
	}
}

// TestFigure3BarnesHutL2 checks the intermediate level of the Sect. 5.1
// narrative: the body-sharing property holds (the paper's L2 result),
// the octree nodes remain shared through the stack's node selector, and
// the step (iii) goal still fails — TOUCH is an L3 property.
func TestFigure3BarnesHutL2(t *testing.T) {
	if testing.Short() {
		t.Skip("Barnes-Hut L2 takes over a minute")
	}
	prog, k := compileKernel(t, "barneshut")
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L2})
	if err != nil {
		t.Fatal(err)
	}
	if met, detail := (checker.NoSharedSelector{Struct: "body", Sel: "body"}).Met(res); !met {
		t.Errorf("SHSEL(body) must be false at L2 (the paper's own L2 result): %s", detail)
	}
	sharedOnode := false
	for _, g := range res.ExitSet().Graphs() {
		for _, n := range g.Nodes() {
			if n.Type == "onode" && n.SharedBy("node") {
				sharedOnode = true
			}
		}
	}
	if !sharedOnode {
		t.Error("octree nodes remain shared through `node` at L2 (stack + children)")
	}
	for _, g := range k.Goals {
		if ul, ok := g.(checker.UnsharedDuringLoop); ok {
			if met, _ := ul.Met(res); met {
				t.Error("the TOUCH goal must not be established at L2")
			}
		}
	}
}

// TestFigure3BarnesHutProgressive runs the full progressive analysis;
// the paper's criterion (step (iii) parallel-traversal proof) requires
// L3.
func TestFigure3BarnesHutProgressive(t *testing.T) {
	if os.Getenv("REPRO_FULL_TEST") == "" {
		t.Skip("runs the Barnes-Hut kernel at all three levels (tens of minutes); set REPRO_FULL_TEST=1")
	}
	prog, k := compileKernel(t, "barneshut")
	pres := analysis.Progressive(prog, k.Goals, analysis.Options{})
	if got := pres.AchievedLevel(); got != rsg.L3 {
		t.Errorf("Barnes-Hut needs L3 per the paper, achieved %s\n%s", got, pres.Summary())
	}
	if len(pres.Levels) != 3 {
		t.Errorf("driver ran %d levels, want all 3", len(pres.Levels))
	}
	// L1 and L2 must have failed on the TOUCH goal specifically.
	for _, rep := range pres.Levels[:len(pres.Levels)-1] {
		if rep.GoalsMet {
			t.Errorf("%s reported all goals met; escalation story broken", rep.Level)
		}
	}
}

// TestTable1LUBudgetAbort reproduces the paper's Sparse LU behaviour:
// the analysis aborts at L2/L3 under the memory budget that models the
// 128 MB machine.
func TestTable1LUBudgetAbort(t *testing.T) {
	prog, _ := compileKernel(t, "lu")
	_, err := analysis.Run(prog, analysis.Options{Level: rsg.L2, NodeBudget: 4000})
	if err == nil {
		t.Fatal("LU at L2 under a tight budget must abort")
	}
}
