package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/cminic"
	"repro/internal/concrete"
	"repro/internal/ir"
)

// Each table1 cell's result must cover coverRuns concrete executions
// drawn from the seed, every heap of up to coverCells cells. The
// embedding search concrete.Covers runs is exponential in the heap:
// matmat executions reach 26-cell heaps on which one step takes minutes,
// while every step up to 12 cells takes under 20 ms. So the check is
// FindCoverFailure's loop with that bound on the heap instead of its
// fixed 1500-step budget.
const (
	coverRuns  = 6
	coverCells = 12
)

// runTable1 measures the paper's Table 1: cold, storeless analysis.Run
// with engine defaults, one cell at a time. An untimed warm-up pass
// (counted in setup_s) fills the process-global intern table first; its
// results are checked for convergence, concrete coverage and goals, and
// their digests are the reference every timed pass must reproduce.
func runTable1(cfg config) (*bench, error) {
	b := newBench(cfg.trace)
	b.spanMetric = map[string]spanTarget{
		"cminic.Parse":  {"cminic.parse_ms", true},
		"ir.LowerMain":  {"ir.lower_ms", true},
		"op":            {"bench.self_ms", true},
		"absem.Step":    {"absem.transfer_ms", false},
		"rsrsg.Reduce":  {"rsrsg.reduce_ms", false},
		"rsg.Divide":    {"rsg.divide_ms", false},
		"rsg.Prune":     {"rsg.prune_ms", false},
		"rsg.Material":  {"rsg.materialize_ms", false},
		"rsg.Compress":  {"rsg.compress_ms", false},
		"rsg.Join":      {"rsg.join_ms", false},
		"rsg.FreezeDig": {"rsg.freeze_digest_ms", false},
		"replay.stmt":   {"replay.self_ms", false},
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ref := make([]string, len(table1Cells))
	for i, c := range table1Cells {
		b.attempted++
		cpu0 := cpuNow(0)
		res, err := analyzeCell(c, nil, 0)
		b.setup += cpuNow(0) - cpu0
		if err != nil {
			b.fail("%s: warm-up: %v", c, err)
			continue
		}
		ref[i] = resultDigest(res)
		if err := coverCheck(res, rng.Int63()); err != nil {
			b.fail("%s: %v", c, err)
		}
		decided, total := goalsMet(c, res)
		b.decided += decided
		b.verdicts += total
		if cfg.trace {
			replay(b, res)
		}
	}
	err := b.timedPasses(cfg, func(p *pass, tr *tracer) error {
		return b.inProcessPass(p, func() error {
			for i, c := range table1Cells {
				b.attempted++
				start := time.Now()
				id := tr.begin("op", 0)
				res, err := analyzeCell(c, tr, id)
				tr.end(id)
				lat := time.Since(start)
				b.passOp(p, lat)
				if err != nil {
					b.fail("%s: %v", c, err)
					continue
				}
				p.peakNodes += res.Stats.PeakNodes
				if d := resultDigest(res); d != ref[i] {
					b.fail("%s: result digest %s differs from the warm-up pass's %s", c, d, ref[i])
				}
				if p.traced {
					b.add("ir.stmts", float64(len(res.Program.Stmts)))
					b.addRunStats(&res.Stats)
				}
			}
			return nil
		})
	})
	return b, err
}

// analyzeCell compiles a kernel and runs one level on it, recording the
// calls into cminic, ir and analysis as spans under parent.
func analyzeCell(c cell, tr *tracer, parent int) (*analysis.Result, error) {
	prog, err := compile(benchprog.ByName(c.kernel).Source, tr, parent)
	if err != nil {
		return nil, err
	}
	prog.Name = c.kernel
	id := tr.begin("analysis.Run", parent)
	res, err := analysis.Run(prog, analysis.Options{Level: c.level})
	tr.end(id)
	return res, err
}

// compile parses and lowers a mini-C source with one span per layer.
func compile(src string, tr *tracer, parent int) (*ir.Program, error) {
	id := tr.begin("cminic.Parse", parent)
	file, err := cminic.Parse(src)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	id = tr.begin("ir.LowerMain", parent)
	prog, err := ir.LowerMain(file)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return prog, nil
}

// coverCheck runs coverRuns concrete executions drawn from seed and
// checks each heap of up to coverCells cells against the result's RSRSG
// at the statement that produced it.
func coverCheck(res *analysis.Result, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < coverRuns; r++ {
		it := &concrete.Interp{Prog: res.Program, Rng: rand.New(rand.NewSource(rng.Int63())), MaxSteps: 1500}
		tr, err := it.Run()
		if err != nil {
			return fmt.Errorf("concrete run %d: %w", r, err)
		}
		for i, st := range tr.Steps {
			if len(st.Heap.Cells) > coverCells {
				break
			}
			set := res.Out[st.StmtID]
			if set == nil {
				return fmt.Errorf("concrete run %d step %d reaches statement %d, which has no RSRSG", r, i, st.StmtID)
			}
			if ok, why := concrete.Covers(set, st.Heap); !ok {
				return fmt.Errorf("concrete run %d step %d: the RSRSG of statement %d does not cover the heap: %s", r, i, st.StmtID, why)
			}
		}
	}
	return nil
}

// goalsMet evaluates the kernel's accuracy goals on a cell's result: the
// questions Table 1's progressive analysis asks of each level. A goal
// gated above the cell's level counts as undecided.
func goalsMet(c cell, res *analysis.Result) (met, total int) {
	for _, g := range benchprog.ByName(c.kernel).Goals {
		total++
		if lg, ok := g.(analysis.LevelGated); ok && c.level < lg.MinLevel() {
			continue
		}
		if ok, _ := g.Met(res); ok {
			met++
		}
	}
	return met, total
}

// addRunStats folds one engine run's counters into the per-layer sums.
func (b *bench) addRunStats(st *analysis.Stats) {
	b.add("analysis.levels_run", 1)
	b.add("analysis.run_ms", float64(st.Duration)/float64(time.Millisecond))
	b.add("analysis.visits", float64(st.Visits))
	b.ratio("analysis.requeue_ratio", float64(st.Requeues), float64(st.Visits))
	b.add("analysis.widenings", float64(st.Widenings))
	b.add("analysis.delta_transfers", float64(st.DeltaTransfers))
	b.add("analysis.full_recomputes", float64(st.FullRecomputes))
	b.add("analysis.dirty_buckets", float64(st.DirtyBuckets))
	cs := st.Cache
	b.add("rsg.graphs_frozen", float64(cs.GraphsFrozen))
	b.add("rsg.digests_computed", float64(cs.DigestsComputed))
	b.ratio("rsg.digest_cache_hit_ratio", float64(cs.DigestCacheHits), float64(cs.DigestCacheHits+cs.DigestsComputed))
	b.ratio("rsg.intern_hit_ratio", float64(cs.InternHits), float64(cs.InternHits+cs.InternMisses))
	b.ratio("rsg.pool_hit_ratio", float64(cs.PoolGets-cs.PoolNews), float64(cs.PoolGets))
}

// resultDigest folds every statement's RSRSG digest, in statement-ID
// order, into one hex digest: equal iff the whole result is
// bit-identical. It is the fold shaped reports as result_digest.
func resultDigest(res *analysis.Result) string {
	ids := make([]int, 0, len(res.Out))
	for id := range res.Out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var buf [8]byte
	for _, id := range ids {
		d := res.Out[id].Digest()
		binary.BigEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
