package analysis_test

// Scheduling smoke gate (`make bench-sched`, wired into `make ci`):
// the WTO recursive strategy's visit counts on the benchmark surfaces
// — the Figure 1 list pipeline and the Barnes-Hut and matvec kernels
// at L1 — are pinned at ceilings, and those fixtures must converge
// without widening. matmat is the one committed kernel whose loop
// heads do cross widenHeadAfter; its widening counts are pinned too,
// so a change that makes widening fire more often shows up here. A
// regression means the component structure or the stabilization loop
// rotted.

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

func TestSchedSmoke(t *testing.T) {
	fixtures := []struct {
		name      string
		src       func(t *testing.T) *ir.Program
		level     rsg.Level
		maxVisits int
		// visitCeiling bounds Stats.Visits (0 = unchecked); widenCeiling
		// bounds Stats.Widenings.
		visitCeiling int
		widenCeiling int
		heavy        bool // skipped under -short
	}{
		{"fig1", func(t *testing.T) *ir.Program { return compileSrc(t, fig1PipelineSource) }, rsg.L1, 0, 51, 0, false},
		{"barneshut", kernelSrc("barneshut"), rsg.L1, 60000, 1382, 0, true},
		{"matvec", kernelSrc("matvec"), rsg.L1, 60000, 513, 0, false},
		{"matmat-L1", kernelSrc("matmat"), rsg.L1, 60000, 0, 25, true},
		{"matmat-L2", kernelSrc("matmat"), rsg.L2, 60000, 0, 8, true},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			if testing.Short() && fx.heavy {
				t.Skip("short mode")
			}
			res, err := analysis.Run(fx.src(t), analysis.Options{Level: fx.level, MaxVisits: fx.maxVisits})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", res.Stats.SchedSummary())
			if fx.visitCeiling > 0 && res.Stats.Visits > fx.visitCeiling {
				t.Errorf("took %d visits, ceiling %d — the recursive strategy schedules worse than it did",
					res.Stats.Visits, fx.visitCeiling)
			}
			if res.Stats.Widenings > fx.widenCeiling {
				t.Errorf("widened %d times, ceiling %d", res.Stats.Widenings, fx.widenCeiling)
			}
		})
	}
}

func kernelSrc(name string) func(t *testing.T) *ir.Program {
	return func(t *testing.T) *ir.Program { p, _ := compileKernel(t, name); return p }
}
