package analysis_test

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/store"
)

// The chained-edit tests drive a store through a cold base version and
// chainLen successive one-statement tail edits (DESIGN.md §13): every
// converged edit records its own snapshot, so the next edit diffs
// against it and re-analyzes only the statement it added.
const chainLen = 4

// chainVersions returns the base kernel followed by chainLen successive
// tail edits of it, all under the kernel's name.
func chainVersions(t *testing.T, k *benchprog.Kernel) []*benchprog.Kernel {
	t.Helper()
	vs := []*benchprog.Kernel{k}
	for i := 0; i < chainLen; i++ {
		next, err := vs[i].TailEdit()
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, next)
	}
	return vs
}

func compileVersion(t *testing.T, k *benchprog.Kernel) *ir.Program {
	t.Helper()
	prog, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func freshStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "chain.rsgstore"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// digestsOf snapshots the per-statement set digests of a result.
func digestsOf(res *analysis.Result) map[int]rsg.Digest {
	out := make(map[int]rsg.Digest, len(res.Out))
	for id, s := range res.Out {
		out[id] = s.Digest()
	}
	return out
}

// forwardCone is the edit-delta seed set of edited against base: the
// entry-reachable statements whose digest changed, closed forward over
// the edited CFG, without the entry.
func forwardCone(base, edited *ir.Program) map[int]bool {
	bd, ed := base.StmtDigests(), edited.StmtDigests()
	cone := make(map[int]bool)
	var stack []int
	for id := range ed {
		if id >= len(bd) || bd[id] != ed[id] {
			cone[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range edited.Stmts[id].Succs {
			if !cone[s] {
				cone[s] = true
				stack = append(stack, s)
			}
		}
	}
	delete(cone, edited.Entry)
	return cone
}

// runChain analyzes vs in order over one fresh store and checks the
// chaining contract of every edit: it visits exactly its own cone, once
// per statement, and restores one statement more than the edit before.
func runChain(t *testing.T, vs []*benchprog.Kernel, opts analysis.Options) []*analysis.Result {
	t.Helper()
	opts.Store = freshStore(t)
	var results []*analysis.Result
	var prev *ir.Program
	for i, v := range vs {
		prog := compileVersion(t, v)
		res, err := analysis.Run(prog, opts)
		if err != nil {
			t.Fatalf("version %d: %v", i, err)
		}
		if i > 0 {
			cone := len(forwardCone(prev, prog))
			if res.Stats.ReseededStatements != cone || res.Stats.Visits != cone {
				t.Fatalf("edit %d: reseeded %d, visited %d; want its own cone of %d",
					i, res.Stats.ReseededStatements, res.Stats.Visits, cone)
			}
		}
		if i > 1 {
			if got, want := res.Stats.ReusedStatements, results[i-1].Stats.ReusedStatements+1; got != want {
				t.Fatalf("edit %d reused %d statements, want %d", i, got, want)
			}
		}
		results = append(results, res)
		prev = prog
	}
	return results
}

// TestPersistChainedEditsConfluent: on the doubly linked list, whose
// tail join is confluent, every chained edit is bit-identical to a
// storeless cold run of the same version.
func TestPersistChainedEditsConfluent(t *testing.T) {
	vs := chainVersions(t, benchprog.DoublyList())
	results := runChain(t, vs, analysis.Options{})
	for i, v := range vs {
		ref, err := analysis.Run(compileVersion(t, v), analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, got := digestsOf(ref), digestsOf(results[i])
		if len(got) != len(want) {
			t.Fatalf("version %d: %d out-states, cold has %d", i, len(got), len(want))
		}
		for id, d := range want {
			if got[id] != d {
				t.Fatalf("version %d: stmt %d differs from cold", i, id)
			}
		}
	}
}

// TestPersistChainedEditsBarnesHut: Barnes-Hut's cone results may be
// more precise than cold (DESIGN.md §13), so a chain is held to the
// unchained edit — the same version edited straight from the base
// snapshot — outside the cumulative cone, and to itself across two
// chains in fresh stores everywhere.
func TestPersistChainedEditsBarnesHut(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping barneshut chained edits in -short mode")
	}
	opts := analysis.Options{Level: rsg.L1}
	vs := chainVersions(t, benchprog.BarnesHut())
	first := runChain(t, vs, opts)
	second := runChain(t, vs, opts)
	base := compileVersion(t, vs[0])
	for i := 1; i < len(vs); i++ {
		a, b := digestsOf(first[i]), digestsOf(second[i])
		if len(a) != len(b) {
			t.Fatalf("edit %d: chains cover %d and %d statements", i, len(a), len(b))
		}
		for id, d := range a {
			if b[id] != d {
				t.Fatalf("edit %d: chains differ at stmt %d", i, id)
			}
		}

		sopts := opts
		sopts.Store = freshStore(t)
		if _, err := analysis.Run(compileVersion(t, vs[0]), sopts); err != nil {
			t.Fatal(err)
		}
		prog := compileVersion(t, vs[i])
		unchained, err := analysis.Run(prog, sopts)
		if err != nil {
			t.Fatal(err)
		}
		cone := forwardCone(base, prog)
		if unchained.Stats.ReseededStatements != len(cone) {
			t.Fatalf("edit %d: unchained run reseeded %d, want %d", i, unchained.Stats.ReseededStatements, len(cone))
		}
		u := digestsOf(unchained)
		if len(u) != len(a) {
			t.Fatalf("edit %d: chained covers %d statements, unchained %d", i, len(a), len(u))
		}
		for id, d := range u {
			if !cone[id] && a[id] != d {
				t.Fatalf("edit %d: stmt %d outside the cone differs from the unchained edit", i, id)
			}
		}
	}
}

// TestPersistChainedEditBudgets: an edit cut short by its visit budget
// records nothing, so the next edit still diffs against the base. A
// converged edit's snapshot records the edit's own visits, so it serves
// any request whose budget the edit itself would have converged under,
// and no lower one; such a lower-budget request runs cold, and its
// bounded prefix does not displace the edit as the next edit's base.
func TestPersistChainedEditBudgets(t *testing.T) {
	vs := chainVersions(t, benchprog.DoublyList())
	st := freshStore(t)
	if _, err := analysis.Run(compileVersion(t, vs[0]), analysis.Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	_, _, snaps := st.Counts()

	bounded, err := analysis.Run(compileVersion(t, vs[1]), analysis.Options{Store: st, MaxVisits: 1})
	if !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatalf("bounded edit: %v", err)
	}
	if bounded.Stats.ReseededStatements == 0 {
		t.Fatalf("bounded run did not take the edit path: %+v", bounded.Stats)
	}
	if _, _, n := st.Counts(); n != snaps {
		t.Fatalf("bounded edit wrote %d snapshots", n-snaps)
	}

	// The converged edit of the same version: still diffed against the
	// base, then recorded.
	prog := compileVersion(t, vs[1])
	edit, err := analysis.Run(prog, analysis.Options{Store: st, MaxVisits: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(forwardCone(compileVersion(t, vs[0]), prog)); edit.Stats.ReseededStatements != want {
		t.Fatalf("edit after a bounded one reseeded %d, want %d", edit.Stats.ReseededStatements, want)
	}
	if _, _, n := st.Counts(); n != snaps+1 {
		t.Fatalf("converged edit wrote %d snapshots, want 1", n-snaps)
	}
	cone := edit.Stats.Visits
	if cone < 2 {
		t.Fatalf("edit visited %d statements; the test needs a budget below that", cone)
	}

	// Below the recording budget but enough for the cone: a zero-work
	// replay.
	warm, err := analysis.Run(compileVersion(t, vs[1]), analysis.Options{Store: st, MaxVisits: cone})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Visits != 0 || warm.Stats.ReusedStatements != len(prog.Stmts) {
		t.Fatalf("request with the edit's own visits as budget was not served: %+v", warm.Stats)
	}
	// Below the cone: not served, runs cold and stops at its budget.
	low, err := analysis.Run(compileVersion(t, vs[1]), analysis.Options{Store: st, MaxVisits: cone - 1})
	if !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatalf("below-cone request: %v", err)
	}
	if low.Stats.ReusedStatements != 0 || low.Stats.ReseededStatements != 0 {
		t.Fatalf("below-cone request was served from a snapshot: %+v", low.Stats)
	}

	// The next edit still diffs against the converged edit.
	next := compileVersion(t, vs[2])
	res, err := analysis.Run(next, analysis.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(forwardCone(prog, next)); res.Stats.ReseededStatements != want || res.Stats.Visits != want {
		t.Fatalf("edit after a bounded cold run reseeded %d, visited %d; want its own cone of %d",
			res.Stats.ReseededStatements, res.Stats.Visits, want)
	}
}
