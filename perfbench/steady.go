package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload (or cfg.workload alone) n times with
// seeds cfg.seed .. cfg.seed+n-1 and prints, per end-to-end metric, the
// median and the run-to-run spread — the distance between the first and
// third quartiles as a share of the median — against the metric's bound.
// It fails when a spread other than setup_s's exceeds its bound or a
// run's outputs are wrong.
func runSteady(cfg config, n, seconds int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if n < 2 {
		return fmt.Errorf("-steady needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadOrder
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	bad := 0
	for _, w := range names {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			fmt.Printf("%s seed %d: %d of %d operations failed; %s\n", w, seed, res.Failed, res.Attempted,
				strings.TrimPrefix(lines[len(lines)-2], "perfbench: "))
			if !res.Correct || res.Failed > 0 {
				bad++
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		fmt.Printf("%-18s %-14s %12s %8s %6s\n", w, "metric", "median", "spread", "bound")
		for _, m := range bf.EndToEnd {
			q := quartiles(vals[m.Name])
			spread := 0.0
			if q[1] != 0 {
				spread = (q[2] - q[0]) / q[1]
			}
			status := "ok"
			switch {
			case m.Name == "setup_s":
				status = "ok (not bounded)"
			case spread > m.Bound:
				status = "OVER BOUND"
				bad++
			case spread > m.Bound/3:
				status = "ok (above a third of the bound)"
			}
			fmt.Printf("%-18s %-14s %12.4f %8.4f %6.2f %s %s\n", "", m.Name, q[1], spread, m.Bound, status, formatValues(vals[m.Name]))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d spreads over their bounds or runs with failed operations", bad)
	}
	return nil
}

// formatValues renders a metric's per-run values, sorted, for reading a
// spread's cause.
func formatValues(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
