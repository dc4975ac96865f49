package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSeedDeterminesInputs(t *testing.T) {
	corpus := filepath.Join("..", "internal", "verdict", "testdata", "corpus")
	tasks := func(seed int64) []task {
		ts, err := checkTasks(seed, corpus)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	stream := func(seed int64) [][]request {
		m := newMix(seed)
		var out [][]request
		for i := 0; i < 6; i++ {
			subs, err := m.batch()
			if err != nil {
				t.Fatal(err)
			}
			var b []request
			for _, sub := range subs {
				for _, r := range sub {
					if r.class != sub[0].class {
						t.Fatalf("sub-batch mixes %s and %s requests", sub[0].class, r.class)
					}
				}
				b = append(b, sub...)
			}
			out = append(out, b)
		}
		return out
	}
	if !reflect.DeepEqual(tasks(7), tasks(7)) {
		t.Error("one seed gave two progressive-check task lists")
	}
	if reflect.DeepEqual(tasks(7), tasks(8)) {
		t.Error("two seeds gave the same progressive-check task list")
	}
	if !reflect.DeepEqual(stream(7), stream(7)) {
		t.Error("one seed gave two shaped-mix request streams")
	}
	if reflect.DeepEqual(stream(7), stream(8)) {
		t.Error("two seeds gave the same shaped-mix request stream")
	}

	bases := baseVersions()
	seen := map[request]bool{}
	for _, batch := range stream(7) {
		if len(batch) != batchWarm+batchEdit+batchCheck {
			t.Fatalf("batch of %d requests", len(batch))
		}
		for _, r := range batch {
			switch r.class {
			case classWarm:
				if r.source != bases[r.base].source {
					t.Errorf("warm request for %s is not its base version", r.name)
				}
			case classEdit:
				if seen[r] {
					t.Errorf("edit of %s/%s repeats within the stream", r.name, r.level)
				}
				seen[r] = true
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2}, [3]float64{0.725, 2.15, 3.575}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesOutput pins BENCHMARK.json to what the
// benchmark prints: the same end-to-end metrics and per-layer metrics,
// with the same units.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	b := newBench(true)
	b.passes = []pass{{wall: time.Second}, {traced: true, wall: time.Second}}
	b.ops = []op{{lat: time.Millisecond}}
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		got := b.result(c.traced).Metrics
		if len(got) != len(c.want) {
			t.Errorf("traced=%v: prints %d metrics, BENCHMARK.json lists %d", c.traced, len(got), len(c.want))
		}
		for _, m := range c.want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("traced=%v: %s (%s) printed as %+v", c.traced, m.Name, m.Unit, g)
			}
		}
	}
}
