package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/benchprog"
	"repro/internal/concrete"
	"repro/internal/rsg"
)

// Every input the program under test receives is generated here from the
// run's seed: the same seed always yields the same task order, programs,
// edits and request stream (perfbench_test.go pins this). table1's
// inputs are the fixed kernels; its seed draws the concrete executions
// the results are checked against.

// cell is one Table 1 entry.
type cell struct {
	kernel string
	level  rsg.Level
}

func (c cell) String() string { return fmt.Sprintf("%s/%s", c.kernel, c.level) }

// table1Cells are the measured Table 1 cells, in the paper's order.
// matmat L3 (about 49 s) and lu (15 s at L1; L2 and L3 abort on the node
// budget) are left out: one of them alone would exceed a run.
var table1Cells = []cell{
	{"matvec", rsg.L1}, {"matvec", rsg.L2}, {"matvec", rsg.L3},
	{"barneshut", rsg.L1}, {"barneshut", rsg.L2}, {"barneshut", rsg.L3},
	{"matmat", rsg.L1}, {"matmat", rsg.L2},
}

// task is one memory-safety check of progressive-check.
type task struct {
	name   string
	source string
	corpus bool // has a `// VERDICT:` header to match
	kernel bool
}

// checkKernels are the kernels progressive-check includes. matmat is
// left out: its check escalates to L3 and takes about a minute.
var checkKernels = []string{"matvec", "barneshut"}

// genPrograms is the number of generated free()-heavy programs per
// progressive-check task list.
const genPrograms = 10

// checkTasks returns progressive-check's task list: the kernels, every
// corpus task under corpusDir and genPrograms generated programs, in an
// order drawn from the seed.
func checkTasks(seed int64, corpusDir string) ([]task, error) {
	rng := rand.New(rand.NewSource(seed))
	var tasks []task
	for _, k := range checkKernels {
		tasks = append(tasks, task{name: k, source: benchprog.ByName(k).Source, kernel: true})
	}
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.c"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no corpus tasks in %s", corpusDir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{name: filepath.Base(p), source: string(src), corpus: true})
	}
	for i := 0; i < genPrograms; i++ {
		tasks = append(tasks, task{name: fmt.Sprintf("gen%d", i), source: concrete.GenFreeProgram(rng)})
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return tasks, nil
}

// mixKernels and mixLevels span shaped-mix's base versions.
var (
	mixKernels = []string{"matvec", "barneshut", "slist", "dlist", "btree"}
	mixLevels  = []rsg.Level{rsg.L1, rsg.L2}
)

// Each shaped-mix batch holds batchWarm + batchEdit + batchCheck
// requests: 40% warm resubmits, 30% new edits, 30% new /check programs.
// A fixed composition per batch keeps batches comparable across seeds.
const (
	batchWarm  = 8
	batchEdit  = 6
	batchCheck = 6
)

// baseVersion is one (kernel, level) program the server is primed with.
type baseVersion struct {
	kernel string
	level  rsg.Level
	source string
}

func baseVersions() []baseVersion {
	var out []baseVersion
	for _, k := range mixKernels {
		for _, l := range mixLevels {
			out = append(out, baseVersion{kernel: k, level: l, source: benchprog.ByName(k).Source})
		}
	}
	return out
}

// request is one shaped-mix request.
type request struct {
	class  string
	base   int // index into baseVersions (warm, edit)
	name   string
	source string
	level  rsg.Level
}

// mix generates shaped-mix's request stream batch by batch.
type mix struct {
	rng   *rand.Rand
	bases []baseVersion
	// edited holds each base version's latest edit; edits chain, so
	// none repeats within a run.
	edited []string
	// warmNext and editNext deal base versions from seeded permutations,
	// so every version gets the same share of each class.
	warmNext, editNext []int
}

func newMix(seed int64) *mix {
	bases := baseVersions()
	m := &mix{rng: rand.New(rand.NewSource(seed)), bases: bases, edited: make([]string, len(bases))}
	for i, b := range bases {
		m.edited[i] = b.source
	}
	return m
}

// batch returns the next batch of requests as one sub-batch per class,
// so the server's CPU time can be read per class. The seed orders the
// sub-batches and the requests within each.
func (m *mix) batch() ([][]request, error) {
	var warm, edit, check []request
	for i := 0; i < batchWarm; i++ {
		bi := m.deal(&m.warmNext)
		b := m.bases[bi]
		warm = append(warm, request{class: classWarm, base: bi, name: b.kernel, source: b.source, level: b.level})
	}
	for i := 0; i < batchEdit; i++ {
		bi := m.deal(&m.editNext)
		src, err := benchprog.TailEditSource(m.edited[bi])
		if err != nil {
			return nil, err
		}
		m.edited[bi] = src
		b := m.bases[bi]
		edit = append(edit, request{class: classEdit, base: bi, name: b.kernel, source: src, level: b.level})
	}
	for i := 0; i < batchCheck; i++ {
		check = append(check, request{class: classCheck, base: -1, source: concrete.GenFreeProgram(m.rng)})
	}
	out := [][]request{warm, edit, check}
	for _, sub := range out {
		m.rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// deal returns the next base version from the deck, reshuffling a full
// deck when it runs out.
func (m *mix) deal(deck *[]int) int {
	if len(*deck) == 0 {
		*deck = m.rng.Perm(len(m.bases))
	}
	bi := (*deck)[0]
	*deck = (*deck)[1:]
	return bi
}
