package analysis_test

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rsg"
)

// TestRunLeavesProgramUntouched pins the compile-once contract: lowering
// is the only code that writes a program, so Run leaves prog.Digest()
// as compiled, and two goroutines may analyze one compiled program at
// once (make test-race runs this under the race detector) and reach the
// same fixed point.
func TestRunLeavesProgramUntouched(t *testing.T) {
	for _, kernel := range []string{"barneshut", "matvec"} {
		for _, lvl := range []rsg.Level{rsg.L1, rsg.L3} {
			prog, _ := compileKernel(t, kernel)
			before := prog.Digest()
			var wg sync.WaitGroup
			results := make([]*analysis.Result, 2)
			errs := make([]error, 2)
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = analysis.Run(prog, analysis.Options{Level: lvl})
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s %v: %v", kernel, lvl, err)
				}
			}
			if after := prog.Digest(); after != before {
				t.Errorf("%s %v: Run changed the program digest: %x -> %x", kernel, lvl, before, after)
			}
			a, b := results[0], results[1]
			for id := range prog.Stmts {
				if sa, sb := a.Out[id], b.Out[id]; (sa == nil) != (sb == nil) || (sa != nil && !sa.Equal(sb)) {
					t.Errorf("%s %v: concurrent runs disagree at statement %d", kernel, lvl, id)
				}
			}
		}
	}
}
