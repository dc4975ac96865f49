package analysis_test

// Tests for the semi-naïve delta engine (DESIGN.md §8): the delta path
// must actually carry the run (vacuity guard for the determinism
// property's delta dimension), and the full-recompute reference must
// stay off it.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rsg"
)

// TestDeltaPathCarriesRun guards the delta determinism dimension
// against vacuity: a default bounded Barnes-Hut run must serve
// statement visits from the delta path, and a full-recompute run must
// not.
func TestDeltaPathCarriesRun(t *testing.T) {
	prog, _ := compileKernel(t, "barneshut")
	on, err := analysis.Run(prog, analysis.Options{Level: rsg.L1, MaxVisits: 1500, Workers: 1})
	if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatal(err)
	}
	if on.Stats.DeltaTransfers == 0 {
		t.Fatal("default run never used the delta path; delta determinism checks are vacuous")
	}
	if on.Stats.DirtyBuckets == 0 {
		t.Error("delta run re-reduced no alias buckets — the accumulator never saw a delta")
	}
	if !strings.Contains(on.Stats.CacheSummary(), "delta(") {
		t.Errorf("CacheSummary lacks the delta counters: %s", on.Stats.CacheSummary())
	}

	off, err := analysis.Run(prog, analysis.FullRecomputeForTest(analysis.Options{Level: rsg.L1, MaxVisits: 1500, Workers: 1}))
	if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatal(err)
	}
	if off.Stats.DeltaTransfers != 0 {
		t.Errorf("full-recompute run reported %d delta transfers", off.Stats.DeltaTransfers)
	}
	if off.Stats.FullRecomputes == 0 {
		t.Error("full-recompute run reported no full recomputes")
	}
	if got, want := fingerprint(on), fingerprint(off); got != want {
		t.Fatal("delta and full-recompute runs diverged (see TestParallelDeterminism for the full matrix)")
	}
}
