package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/verdict"
)

// clients is the number of closed-loop clients driving shaped: one per
// CPU of the 2-CPU machine the benchmark is sized for.
const clients = 2

// outcome is one request's result as the client saw it.
type outcome struct {
	start, end time.Time
	analyze    *service.AnalyzeResponse
	check      *service.CheckResponse
	err        error
}

// checkRecord is one answered /check request, verified after the run.
type checkRecord struct {
	source, verdicts string
}

// setups is the number of times shaped-mix boots and primes a server;
// setup_s is the median of their CPU times, and the last server is the
// one measured.
const setups = 3

// runShapedMix measures the shaped daemon as its own process over a
// fresh store. Set-up (counted in setup_s, as the server's CPU time)
// boots it and cold-primes every base version; then two closed-loop
// clients send fixed-size batches of warm resubmits, new one-statement
// edits and new /check programs, one class at a time, and the server's
// CPU time is read around each class.
func runShapedMix(cfg config) (*bench, error) {
	b := newBench(cfg.trace)
	bases := baseVersions()
	var srv *server
	var primed []string
	var times []float64
	for k := 0; k < setups; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("shaped shutdown: %w", err)
			}
		}
		s, digests, err := bootAndPrime(b, bases)
		if err != nil {
			return nil, err
		}
		// The server is fresh: its CPU time so far is its boot and priming.
		times = append(times, cpuNow(s.pid()).Seconds())
		defer os.RemoveAll(filepath.Dir(s.storePath))
		defer s.stop()
		for i := range digests {
			if primed != nil && digests[i] != primed[i] {
				b.fail("prime %s/%s: digest %s, the previous boot's %s", bases[i].kernel, bases[i].level, digests[i], primed[i])
			}
		}
		srv, primed = s, digests
	}
	b.setup = time.Duration(median(times) * float64(time.Second))
	client := srv.client()

	m := newMix(cfg.seed)
	var checks []checkRecord
	last, err := client.Stats()
	if err != nil {
		return nil, fmt.Errorf("shaped /stats: %w", err)
	}
	lastSize := fileSize(srv.storePath)
	err = b.timedPasses(cfg, func(p *pass, tr *tracer) error {
		subs, err := m.batch()
		if err != nil {
			return err
		}
		var reqs []request
		var outs []outcome
		p.classCPU, p.classOps = map[string]time.Duration{}, map[string]int{}
		start := time.Now()
		for _, sub := range subs {
			o := make([]outcome, len(sub))
			cpu0 := cpuNow(srv.pid())
			drive(client, sub, o)
			cpu := cpuNow(srv.pid()) - cpu0
			p.cpu += cpu
			p.classCPU[sub[0].class] += cpu
			p.classOps[sub[0].class] += len(sub)
			reqs, outs = append(reqs, sub...), append(outs, o...)
		}
		end := time.Now()
		p.wall = end.Sub(start)
		for i, r := range reqs {
			o := outs[i]
			b.attempted++
			lat := o.end.Sub(o.start)
			b.passOp(p, lat)
			tr.record("service.request", 0, o.start, o.end)
			if o.err != nil {
				b.fail("%s %s: %v", r.class, r.name, o.err)
				continue
			}
			var engine time.Duration
			if a := o.analyze; a != nil {
				engine = time.Duration(a.DurationUS) * time.Microsecond
				switch {
				case a.Outcome != "converged" || a.ResultDigest == "":
					b.fail("%s %s: outcome %s %s", r.class, r.name, a.Outcome, a.Error)
				case r.class == classWarm && a.ResultDigest != primed[r.base]:
					b.fail("warm %s/%s: digest %s, primed %s", r.name, r.level, a.ResultDigest, primed[r.base])
				}
				if p.traced {
					b.ratio("analysis.reused_stmts_"+r.class, float64(a.ReusedStatements), 1)
					b.add("analysis.run_ms", float64(engine)/float64(time.Millisecond))
				}
			} else {
				c := o.check
				engine = time.Duration(c.DurationUS) * time.Microsecond
				if c.Error != "" {
					b.fail("check: %s", c.Error)
				}
				var line []string
				for _, v := range c.Verdicts {
					line = append(line, v.Verdict)
					b.verdicts++
					if v.Status != "unknown" {
						b.decided++
					}
				}
				checks = append(checks, checkRecord{source: r.source, verdicts: strings.Join(line, " ")})
			}
			if p.traced {
				ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
				b.ratio("service.overhead_ms_"+r.class, ms(lat-engine), 1)
				b.ratio("service.engine_ms", ms(engine), 1)
			}
		}
		st, err := client.Stats()
		if err != nil {
			return fmt.Errorf("shaped /stats: %w", err)
		}
		size := fileSize(srv.storePath)
		// Read after the /stats round trip, so the trace lines of the
		// batch's last collections have arrived.
		gc := srv.gcs.window(start, end)
		p.peakHeap = gc.peak
		// shaped exports no allocation counter and its GC trace rounds to
		// whole MB, below what a small request allocates between forced
		// collections; its resident memory stands in for alloc_mb.
		p.alloc = srv.memory("VmRSS")
		if p.traced {
			b.addServiceStats(last, st, size-lastSize)
			b.add("runtime.gc_count", float64(gc.count))
			b.add("runtime.gc_pause_ms", gc.pauseMS)
			b.add("runtime.live_heap_mb", float64(gc.live)/mib)
		}
		last, lastSize = st, size
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.layerSet["service.peak_rss_mb"] = float64(srv.memory("VmHWM")) / mib
	if err := srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shaped shutdown:", err)
	}
	start := time.Now()
	st, err := store.OpenReadOnly(srv.storePath)
	if err != nil {
		return nil, fmt.Errorf("reopening the store: %w", err)
	}
	b.layerSet["store.reopen_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	st.Close()

	// Independent references, computed after the measurement so they do
	// not compete with the server for the CPUs. The small /check programs
	// go first, while this process's heap is still small.
	for _, c := range checks {
		prog, err := verdict.Compile(c.source)
		if err != nil {
			b.fail("check reference: %v", err)
			continue
		}
		want := verdictLine(verdict.Check(prog, verdict.Options{Analysis: analysis.Options{Workers: 1}}))
		if c.verdicts != want {
			b.fail("check: shaped says %q, a solo verdict.Check says %q", c.verdicts, want)
		}
	}
	nodes := 0
	for i, bv := range bases {
		prog, err := compile(bv.source, nil, 0)
		if err != nil {
			b.fail("reference %s: %v", bv.kernel, err)
			continue
		}
		prog.Name = bv.kernel
		res, err := analysis.Run(prog, analysis.Options{Level: bv.level, Workers: 1})
		if err != nil {
			b.fail("reference %s/%s: %v", bv.kernel, bv.level, err)
			continue
		}
		nodes += res.Stats.PeakNodes
		if d := resultDigest(res); d != primed[i] {
			b.fail("%s/%s: shaped digest %s, a solo storeless run %s", bv.kernel, bv.level, primed[i], d)
		}
	}
	for i := range b.passes {
		b.passes[i].peakNodes = nodes
	}
	return b, nil
}

// bootAndPrime starts shaped over a fresh store and cold-primes every
// base version, returning each one's result digest.
func bootAndPrime(b *bench, bases []baseVersion) (*server, []string, error) {
	dir, err := os.MkdirTemp(buildDir, "store-")
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(filepath.Join(buildDir, "shaped"), dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	client := srv.client()
	primed := make([]string, len(bases))
	for i, bv := range bases {
		b.attempted++
		resp, err := client.Analyze(service.AnalyzeRequest{Name: bv.kernel, Source: bv.source, Level: int(bv.level)})
		if err != nil || resp.Outcome != "converged" {
			b.fail("prime %s/%s: %v %+v", bv.kernel, bv.level, err, resp)
			continue
		}
		primed[i] = resp.ResultDigest
	}
	return srv, primed, nil
}

// drive sends the batch through the closed-loop clients: each sends its
// next request only once the previous one has been answered.
func drive(c *service.Client, reqs []request, outs []outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = send(c, reqs[i])
			}
		}()
	}
	wg.Wait()
}

func send(c *service.Client, r request) outcome {
	o := outcome{start: time.Now()}
	if r.class == classCheck {
		o.check, o.err = c.Check(service.CheckRequest{Source: r.source})
	} else {
		o.analyze, o.err = c.Analyze(service.AnalyzeRequest{Name: r.name, Source: r.source, Level: int(r.level)})
	}
	o.end = time.Now()
	return o
}

// addServiceStats folds the /stats deltas of one batch into the
// per-layer sums.
func (b *bench) addServiceStats(prev, cur *service.StatsResponse, bytesWritten int64) {
	a, pa := cur.Analysis, prev.Analysis
	b.add("analysis.levels_run", float64(a.Runs-pa.Runs))
	b.add("analysis.visits", float64(a.Visits-pa.Visits))
	b.add("rsg.graphs_frozen", float64(a.GraphsFrozen-pa.GraphsFrozen))
	b.add("rsg.digests_computed", float64(a.DigestsComputed-pa.DigestsComputed))
	hits, misses := a.InternHits-pa.InternHits, a.InternMisses-pa.InternMisses
	b.ratio("rsg.intern_hit_ratio", float64(hits), float64(hits+misses))
	for name, ep := range cur.Endpoints {
		pe := prev.Endpoints[name]
		b.add("service.queued", float64(ep.Queued-pe.Queued))
		b.add("service.rejected", float64(ep.Rejected-pe.Rejected))
		b.add("service.timeouts", float64(ep.Timeouts-pe.Timeouts))
	}
	if cur.Store != nil && prev.Store != nil {
		recs := (cur.Store.Graphs + cur.Store.Memos + cur.Store.Snapshots) -
			(prev.Store.Graphs + prev.Store.Memos + prev.Store.Snapshots)
		b.add("store.records", float64(recs))
	}
	b.add("store.bytes_written", float64(bytesWritten))
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// storeFile is the store file shaped keeps in its -cache-dir.
func storeFile(dir string) string { return filepath.Join(dir, "shape.rsgstore") }
