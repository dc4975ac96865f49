package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/concrete"
	"repro/internal/verdict"
)

// crossSeeds is the number of concrete executions each task's SAFE
// verdicts are cross-checked against.
const crossSeeds = 24

// runProgressiveCheck measures verdict.Check — the progressive L1->L3
// driver with the three memory-safety goals, the checkers, alarm
// confirmation and the per-level forced GC — over the kernels, the
// verdict corpus and generated programs. Set-up (counted in setup_s)
// checks the kernels once, which fills the process-global intern table
// to the size every later forced collection traverses. Each task's first
// verdicts are checked against its corpus header and the concrete
// interpreter after the passes; every later check must repeat them.
func runProgressiveCheck(cfg config) (*bench, error) {
	b := newBench(cfg.trace)
	b.spanMetric = map[string]spanTarget{
		"cminic.Parse": {"cminic.parse_ms", true},
		"ir.LowerMain": {"ir.lower_ms", true},
		"op":           {"bench.self_ms", true},
	}
	tasks, err := checkTasks(cfg.seed, filepath.Join("internal", "verdict", "testdata", "corpus"))
	if err != nil {
		return nil, err
	}
	ref := make([]string, len(tasks))
	first := make([][]verdict.Verdict, len(tasks))
	// settle records a task's first verdicts and checks every later
	// check of the task against them.
	settle := func(i int, rep *verdict.Report) {
		line := verdictLine(rep)
		if first[i] != nil {
			if line != ref[i] {
				b.fail("%s: verdicts %q differ from the first check's %q", tasks[i].name, line, ref[i])
			}
			return
		}
		ref[i] = line
		for _, v := range rep.Verdicts {
			first[i] = append(first[i], verdict.Verdict{Class: v.Class, Status: v.Status, Level: v.Level})
			b.verdicts++
			if v.Status != verdict.Unknown {
				b.decided++
			}
		}
	}
	for i, t := range tasks {
		if !t.kernel {
			continue
		}
		b.attempted++
		cpu0 := cpuNow(0)
		rep, _, err := checkTask(t, nil, 0)
		b.setup += cpuNow(0) - cpu0
		if err != nil {
			b.fail("%s: set-up: %v", t.name, err)
			continue
		}
		settle(i, rep)
	}
	err = b.timedPasses(cfg, func(p *pass, tr *tracer) error {
		return b.inProcessPass(p, func() error {
			for i, t := range tasks {
				b.attempted++
				start := time.Now()
				id := tr.begin("op", 0)
				rep, checkDur, err := checkTask(t, tr, id)
				tr.end(id)
				b.passOp(p, time.Since(start))
				if err != nil {
					b.fail("%s: %v", t.name, err)
					continue
				}
				settle(i, rep)
				var levels time.Duration
				peak := 0
				for _, lr := range rep.Progressive.Levels {
					levels += lr.Duration
					if lr.Result == nil {
						continue
					}
					peak = max(peak, lr.Result.Stats.PeakNodes)
					if p.traced {
						b.addRunStats(&lr.Result.Stats)
					}
				}
				p.peakNodes += peak
				if p.traced {
					b.add("ir.stmts", float64(len(rep.Prog.Stmts)))
					b.add("verdict.self_ms", float64(checkDur-levels)/float64(time.Millisecond))
					for _, v := range rep.Verdicts {
						b.add("verdict.alarms", float64(len(v.Alarms)))
						if v.Status == verdict.Unknown {
							b.add("verdict.unknown", 1)
						}
					}
				}
			}
			return nil
		})
	})
	for i, t := range tasks {
		if first[i] == nil {
			continue
		}
		if msg := crossCheck(t, first[i], cfg.seed); msg != "" {
			b.fail("%s: %s", t.name, msg)
		}
	}
	return b, err
}

// checkTask compiles and checks one task, with spans for the calls into
// cminic, ir and verdict; it also returns the verdict.Check wall time.
func checkTask(t task, tr *tracer, parent int) (*verdict.Report, time.Duration, error) {
	prog, err := compile(t.source, tr, parent)
	if err != nil {
		return nil, 0, err
	}
	id := tr.begin("verdict.Check", parent)
	start := time.Now()
	rep := verdict.Check(prog, verdict.Options{})
	dur := time.Since(start)
	tr.end(id)
	if rep.Err != nil {
		return nil, dur, rep.Err
	}
	return rep, dur, nil
}

// verdictLine renders a report's verdicts, e.g. "safe@L1 unsafe unknown".
func verdictLine(rep *verdict.Report) string {
	parts := make([]string, len(rep.Verdicts))
	for i, v := range rep.Verdicts {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}

// crossCheck checks a task's verdicts (in verdict.Classes order) against
// their independent references: the task's `// VERDICT:` header when it
// has one, and concrete executions drawn from the seed, none of which
// may violate a class called safe. It returns "" when both agree.
func crossCheck(t task, verdicts []verdict.Verdict, seed int64) string {
	if t.corpus {
		exp, ok, err := verdict.ParseHeader(t.source)
		if err != nil || !ok {
			return fmt.Sprintf("no usable verdict header: %v", err)
		}
		for _, c := range verdict.Classes() {
			if v := verdicts[c]; !exp[c].Matches(v) {
				return fmt.Sprintf("%s: expected %s, got %s", c, exp[c], v)
			}
		}
	}
	prog, err := verdict.Compile(t.source)
	if err != nil {
		return err.Error()
	}
	for i := int64(0); i < crossSeeds; i++ {
		tr, err := concrete.RunSeed(prog, seed*crossSeeds+i)
		if err != nil {
			return fmt.Sprintf("concrete run: %v", err)
		}
		var violated []verdict.Class
		switch tr.Fault {
		case concrete.FaultNullDeref:
			violated = append(violated, verdict.NullDeref)
		case concrete.FaultUseAfterFree, concrete.FaultDoubleFree:
			violated = append(violated, verdict.UseAfterFree)
		}
		if len(tr.Leaks) > 0 {
			violated = append(violated, verdict.Leak)
		}
		for _, c := range violated {
			if verdicts[c].Status == verdict.Safe {
				return fmt.Sprintf("%s claimed safe but concrete seed %d violates it", c, seed*crossSeeds+i)
			}
		}
	}
	return ""
}
