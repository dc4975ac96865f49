package analysis_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

// settledHeap collects until the previous cycle's sync.Pool victims are
// gone too, then reads the live heap the way RunLevel does.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakHeap runs one level and returns its reported peak live heap;
// nothing of the result outlives the call.
//
//go:noinline
func peakHeap(t *testing.T, prog *ir.Program, lvl rsg.Level) uint64 {
	rep := analysis.RunLevel(prog, lvl, nil, analysis.Options{})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return rep.PeakHeapBytes
}

// TestRunLevelHeapIsPerRun pins the space column to the run it
// measures: once a Barnes-Hut L2 result is dropped, a collection
// returns the live heap to where it stood before the run, and a matvec
// L1 measured after it reports about the peak heap of one measured
// before it. Nothing process-wide may keep a finished run's graphs
// alive, or every later cell's peak heap carries them.
func TestRunLevelHeapIsPerRun(t *testing.T) {
	matvec, _ := compileKernel(t, "matvec")
	barneshut, _ := compileKernel(t, "barneshut")

	firstPeak := peakHeap(t, matvec, rsg.L1)
	before := settledHeap()
	peakHeap(t, barneshut, rsg.L2)
	after := settledHeap()
	const slack = 4 << 20
	if after > before+slack {
		t.Errorf("live heap %.1f MB after a dropped barneshut L2 run, %.1f MB before it: the run's graphs are still reachable",
			float64(after)/(1<<20), float64(before)/(1<<20))
	}
	laterPeak := peakHeap(t, matvec, rsg.L1)
	if laterPeak > 2*firstPeak {
		t.Errorf("matvec L1 peak heap %.1f MB after barneshut L2, %.1f MB before it",
			float64(laterPeak)/(1<<20), float64(firstPeak)/(1<<20))
	}
	t.Logf("live heap around barneshut L2: %.1f -> %.1f MB; matvec L1 peak heap: %.1f -> %.1f MB",
		float64(before)/(1<<20), float64(after)/(1<<20), float64(firstPeak)/(1<<20), float64(laterPeak)/(1<<20))
}
