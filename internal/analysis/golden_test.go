package analysis_test

// Representation-equivalence property test (DESIGN.md §10): the
// per-statement canonical digests of fig1/barneshut/lu/matvec/popfree
// at every level are pinned to golden values. The canonical signature
// format (canon.go) is defined over names, not over any in-memory
// layout, so any faithful re-encoding of the RSG must reproduce these
// bytes exactly. fig1 and popfree converge without widening, so their
// digests are the schedule-independent fixed point (they were also
// reproduced by the flat reverse-postorder worklist the engine used
// before the WTO scheduler); the kernels' bounded runs stop at a
// visit-count prefix and pin the WTO schedule's partial state.
//
// Regenerate with REPRO_UPDATE_GOLDEN=1 — but only ever from a tree
// whose digests are already trusted; the file is the contract.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

const goldenDigestFile = "testdata/golden_digests.json"

// goldenFixtures mirrors the determinism suite: fig1 and popfree run
// to their fixed points, the kernels run under a visit bound (partial
// fixed points are just as representation-sensitive and far cheaper).
var goldenFixtures = []struct {
	name      string
	src       func(t *testing.T) *ir.Program
	maxVisits int
}{
	{"fig1", func(t *testing.T) *ir.Program { return compileSrc(t, fig1PipelineSource) }, 0},
	{"barneshut", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "barneshut"); return p }, 300},
	{"lu", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "lu"); return p }, 300},
	{"matvec", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "matvec"); return p }, 300},
	{"popfree", func(t *testing.T) *ir.Program { return compileSrc(t, popFreeSource) }, 0},
}

func TestGoldenDigestEquivalence(t *testing.T) {
	if os.Getenv("REPRO_UPDATE_GOLDEN") == "" {
		checkGolden(t, goldenCells(t, nil))
		return
	}
	got := goldenCells(t, nil)
	if err := os.MkdirAll(filepath.Dir(goldenDigestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenDigestFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d golden fingerprints", len(got))
}

// TestGoldenDigestsUnderGC reruns the golden fixtures while collections
// free the canonical instances the intern table no longer sees used:
// once with a collector racing every run, once with a collection
// between runs. Whichever instance ends up canonical, the digests must
// be the recorded ones.
func TestGoldenDigestsUnderGC(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		stop := make(chan struct{})
		collector := make(chan struct{})
		go func() {
			defer close(collector)
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					runtime.GC()
				}
			}
		}()
		got := goldenCells(t, nil)
		close(stop)
		<-collector
		checkGolden(t, got)
	})
	t.Run("between", func(t *testing.T) {
		checkGolden(t, goldenCells(t, runtime.GC))
	})
}

// goldenCells runs every golden fixture at L1-L3 and returns the
// fingerprints by cell key; between, when non-nil, runs before each
// cell.
func goldenCells(t *testing.T, between func()) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, fx := range goldenFixtures {
		prog := fx.src(t)
		for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
			if between != nil {
				between()
			}
			key := fx.name + "/" + lvl.String()
			res, err := analysis.Run(prog, analysis.Options{Level: lvl, MaxVisits: fx.maxVisits})
			if err != nil && !(fx.maxVisits > 0 && errors.Is(err, analysis.ErrNoConvergence)) {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = fingerprint(res)
		}
	}
	return got
}

// checkGolden compares computed fingerprints against the recorded file.
func checkGolden(t *testing.T, got map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatalf("missing golden digests (run with REPRO_UPDATE_GOLDEN=1 to record): %v", err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(golden) {
		t.Fatalf("fixture set drifted: %d cells computed, %d recorded", len(got), len(golden))
	}
	for key, want := range golden {
		if got[key] != want {
			t.Errorf("%s: per-statement digests diverged from the pre-refactor encoding\n--- want\n%s\n--- got\n%s",
				key, clip(want), clip(got[key]))
		}
	}
}

// clip bounds a fingerprint dump so a divergence stays readable.
func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "…"
	}
	return s
}
