package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

const mib = 1 << 20

// Operation classes. Only shaped-mix has all three; the in-process
// workloads have one kind of operation each (see NOTES.md).
const (
	classWarm  = "warm"
	classEdit  = "edit"
	classCheck = "check"
)

// pass is one timed pass over the workload's operations.
type pass struct {
	traced bool
	wall   time.Duration
	// cpu is the CPU time the system under test spent on the pass: this
	// process for the in-process workloads, the server for shaped-mix.
	cpu time.Duration
	// classCPU and classOps are the CPU time and operation count of each
	// class (shaped-mix); nil when the pass has one class, whose totals
	// are cpu and ops.
	classCPU  map[string]time.Duration
	classOps  map[string]int
	ops       int
	alloc     uint64 // bytes allocated
	peakHeap  uint64 // highest heap observed
	peakNodes int    // summed abstraction size
}

// op is one operation's wall-clock latency.
type op struct {
	lat    time.Duration
	traced bool
}

// bench accumulates one run's measurements and output checks.
type bench struct {
	setup     time.Duration // CPU time of the set-up
	passes    []pass
	ops       []op
	attempted int
	failed    int
	// decided/verdicts count the (task, question) answers that settled.
	decided, verdicts int

	tr *tracer // nil unless -trace 1
	// layerSum holds per-layer quantities summed over traced passes and
	// reported per pass; layerRatio holds numerator/denominator pairs;
	// layerSet holds values reported as they are.
	layerSum   map[string]float64
	layerRatio map[string][2]float64
	layerSet   map[string]float64
	// spanMetric maps a span name to the per-layer metric its self time
	// feeds; perPass says whether it is averaged over traced passes.
	spanMetric map[string]spanTarget
}

type spanTarget struct {
	metric  string
	perPass bool
}

func newBench(trace bool) *bench {
	b := &bench{
		layerSum:   map[string]float64{},
		layerRatio: map[string][2]float64{},
		layerSet:   map[string]float64{},
		spanMetric: map[string]spanTarget{},
	}
	if trace {
		b.tr = newTracer()
	}
	return b
}

// fail records one failed operation (the caller counted it attempted).
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (b *bench) add(name string, v float64) { b.layerSum[name] += v }

func (b *bench) ratio(name string, num, den float64) {
	r := b.layerRatio[name]
	b.layerRatio[name] = [2]float64{r[0] + num, r[1] + den}
}

// timedPasses runs passes while the next one, taking as long as the
// last, would end within the measured time: at least one, and in trace
// mode at least two, alternating traced and untraced so the overhead of
// tracing is measured within the run. Stopping before a pass that would
// overrun keeps a run's length near --seconds when the host is slow.
func (b *bench) timedPasses(cfg config, runPass func(p *pass, tr *tracer) error) error {
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start)+last > cfg.seconds {
			return nil
		}
		passStart := time.Now()
		p := pass{traced: cfg.trace && i%2 == 0}
		var tr *tracer
		if p.traced {
			tr = b.tr
		}
		if err := runPass(&p, tr); err != nil {
			return err
		}
		last = time.Since(passStart)
		b.passes = append(b.passes, p)
	}
}

// passOp records one operation of the pass and its latency.
func (b *bench) passOp(p *pass, lat time.Duration) {
	p.ops++
	b.ops = append(b.ops, op{lat: lat, traced: p.traced})
}

func (b *bench) tracedPasses() int {
	n := 0
	for _, p := range b.passes {
		if p.traced {
			n++
		}
	}
	return n
}

// result renders the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
func (b *bench) result(traced bool) result {
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		b.perLayer(res.Metrics)
	} else {
		b.endToEnd(res.Metrics)
	}
	return res
}

// endToEnd reports the untraced passes. Every time in it is CPU time,
// which the host's steal does not inflate (see NOTES.md); wall-clock
// figures are per-layer metrics of the traced run.
func (b *bench) endToEnd(m map[string]metric) {
	var cpu, alloc, heap, nodes []float64
	class := map[string][]float64{}
	for _, p := range b.passes {
		if p.traced {
			continue
		}
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.alloc)/mib)
		heap = append(heap, float64(p.peakHeap)/mib)
		nodes = append(nodes, float64(p.peakNodes))
		for _, c := range []string{classWarm, classEdit, classCheck} {
			spent, n := p.classCPU[c], p.classOps[c]
			if p.classCPU == nil {
				spent, n = p.cpu, p.ops
			}
			if n > 0 {
				class[c] = append(class[c], float64(spent)/float64(n)/float64(time.Millisecond))
			}
		}
	}
	share := 0.0
	if b.verdicts > 0 {
		share = float64(b.decided) / float64(b.verdicts)
	}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", b.setup.Seconds())
	put("cpu_s", "s", median(cpu))
	put("warm_cpu_ms", "ms", median(class[classWarm]))
	put("edit_cpu_ms", "ms", median(class[classEdit]))
	put("check_cpu_ms", "ms", median(class[classCheck]))
	put("alloc_mb", "MB", median(alloc))
	put("peak_heap_mb", "MB", median(heap))
	put("peak_nodes", "count", median(nodes))
	put("decided_share", "share", share)
}

func (b *bench) perLayer(m map[string]metric) {
	n := float64(b.tracedPasses())
	for name, t := range b.tr.selfTimes() {
		target, ok := b.spanMetric[name]
		if !ok {
			continue
		}
		ms := float64(t) / float64(time.Millisecond)
		if target.perPass {
			b.layerSum[target.metric] += ms
		} else {
			b.layerSet[target.metric] += ms
		}
	}
	var tracedWall, plainWall []float64
	for _, p := range b.passes {
		if p.traced {
			tracedWall = append(tracedWall, p.wall.Seconds())
		} else {
			plainWall = append(plainWall, p.wall.Seconds())
		}
	}
	b.layerSet["trace.overhead_share"] = median(tracedWall)/median(plainWall) - 1
	b.layerSet["wall.pass_s"] = median(plainWall)
	var lats []float64
	for _, o := range b.ops {
		if !o.traced {
			lats = append(lats, float64(o.lat)/float64(time.Millisecond))
		}
	}
	b.layerSet["wall.op_p50_ms"] = percentile(lats, 50)
	b.layerSet["wall.op_p90_ms"] = percentile(lats, 90)
	for _, l := range perLayerMetrics {
		v := b.layerSet[l.name]
		if s, ok := b.layerSum[l.name]; ok && n > 0 {
			v = s / n
		}
		if r, ok := b.layerRatio[l.name]; ok && r[1] > 0 {
			v = r[0] / r[1]
		}
		m[l.name] = metric{Value: v, Unit: l.unit}
	}
}

// heapSampler records the highest live heap of the process while a pass
// runs, sampling every 20 ms. It reads runtime/metrics, which does not
// stop the world: runtime.ReadMemStats would, 50 times a second, and
// every stop waits for both threads to reach a safe point.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

// heapObjects is runtime.MemStats.HeapAlloc under its runtime/metrics name.
const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var peak uint64
		sample := []metrics.Sample{{Name: heapObjects}}
		read := func() {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				read()
				s.peak <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

// done stops the sampler and returns the peak it saw.
func (s *heapSampler) done() uint64 {
	close(s.stop)
	return <-s.peak
}

// inProcessPass wraps one in-process pass: a collection first so every
// pass starts from the same heap, then wall time, CPU time, allocation
// and peak heap around body. A traced pass also records the runtime's GC work and
// the heap left live after it.
func (b *bench) inProcessPass(p *pass, body func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	start, cpu0 := time.Now(), cpuNow(0)
	err := body()
	p.wall, p.cpu = time.Since(start), cpuNow(0)-cpu0
	p.peakHeap = sampler.done()
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	if p.traced {
		b.add("runtime.gc_count", float64(after.NumGC-before.NumGC))
		b.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.add("runtime.live_heap_mb", float64(after.HeapAlloc)/mib)
	}
	return err
}

// cpuNow is cpuTime(pid), or 0 once the process is gone (its requests
// fail then, and count as failed operations).
func cpuNow(pid int) time.Duration {
	d, _ := cpuTime(pid)
	return d
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns Q1, Q2, Q3 of xs with the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), the
// one the steadiness check is specified with. Needs len(xs) >= 2.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
