// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time from a seed, checks every output against an
// independent reference, and prints one JSON result as the last line of
// standard output:
//
//	perfbench -workload table1 -seed 7 -seconds 20 -trace 0
//
// Workloads:
//
//	table1             the paper's Table 1: cold, storeless analysis.Run
//	                   over matvec L1-L3, barneshut L1-L3, matmat L1-L2
//	progressive-check  verdict.Check (progressive L1->L3 with the three
//	                   memory-safety goals, alarm confirmation) over the
//	                   kernels, the verdict corpus and generated programs
//	shaped-mix         the shaped daemon in its own process, driven by two
//	                   closed-loop clients with warm resubmits, one-statement
//	                   edits and /check requests
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics and the tracing overhead, and the recorded
// spans are written to .bench_build/perfbench. -steady N runs every
// workload N times in child processes, with seeds -seed .. -seed+N-1, and
// reports each metric's run-to-run spread against the bounds in
// BENCHMARK.json. Run it from the checkout root through run.sh, which
// builds it and shaped. NOTES.md describes every metric on every
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// buildDir holds what run.sh builds (this binary and shaped) and what a
// run leaves: traces and store files. Paths are relative to the checkout
// root, the working directory of every run.
const buildDir = ".bench_build/perfbench"

var workloads = map[string]func(cfg config) (*bench, error){
	"table1":            runTable1,
	"progressive-check": runProgressiveCheck,
	"shaped-mix":        runShapedMix,
}

var workloadOrder = []string{"table1", "progressive-check", "shaped-mix"}

func main() {
	var cfg config
	var seconds int
	var trace, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1, progressive-check or shaped-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "steadiness mode: run each workload N times and report spreads")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	if steady > 0 {
		if err := runSteady(cfg, steady, seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%v), -seconds >= 1 and -trace 0|1\n", workloadOrder)
		os.Exit(2)
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: not at a checkout root:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		cfg.workload, cfg.seed, seconds, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	b, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := b.result(cfg.trace)
	walls := make([]string, len(b.passes))
	cpus := make([]string, len(b.passes))
	for i, p := range b.passes {
		walls[i] = fmt.Sprintf("%.3f", p.wall.Seconds())
		cpus[i] = fmt.Sprintf("%.3f", p.cpu.Seconds())
	}
	fmt.Printf("perfbench: setup %.3f s CPU; passes %v s wall, %v s CPU\n", b.setup.Seconds(), walls, cpus)
	if cfg.trace {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
