package rsg

import "sync"

// canonScratch is the reusable working state of one signature/digest
// computation (DESIGN.md §10). Everything in it is position-indexed
// (parallel to Graph.ids), grown as needed and recycled through a
// sync.Pool: digesting is the per-freeze hot path and must not allocate
// proportionally to the graph on every call.
//
// Pool discipline: a scratch may only be used between get/put by one
// goroutine, and nothing reachable from it may escape — byte slices are
// copied (or hashed) before put, and pointerful slices are cleared so
// the pool does not pin dead graphs.
type canonScratch struct {
	spaths   []SPathSet
	paths    []SPath // backing array of spaths
	localEnd []int32 // end offsets of the tie-break keys in buf
	descEnd  []int32 // end offsets of their node-descriptor prefixes
	starts   []int32 // out-run offsets (Graph.outStarts)
	pos      []int32 // Graph.posTable
	idx      []int32
	seen     []bool
	order    []int // canonical order, as positions into Graph.ids
	queue    []int
	targets  []int
	dsts     []int
	buf      []byte // tie-break keys
	sig      []byte // signature accumulation buffer
}

var canonPool = sync.Pool{New: func() any {
	cacheStats.poolNews.Add(1)
	return new(canonScratch)
}}

func getCanonScratch() *canonScratch {
	cacheStats.poolGets.Add(1)
	return canonPool.Get().(*canonScratch)
}

func putCanonScratch(cs *canonScratch) {
	// Keep capacities; nothing here points into the encoded graph.
	cs.spaths = cs.spaths[:0]
	cs.localEnd = cs.localEnd[:0]
	cs.descEnd = cs.descEnd[:0]
	cs.starts = cs.starts[:0]
	cs.pos = cs.pos[:0]
	cs.idx = cs.idx[:0]
	cs.seen = cs.seen[:0]
	cs.order = cs.order[:0]
	cs.queue = cs.queue[:0]
	cs.targets = cs.targets[:0]
	cs.dsts = cs.dsts[:0]
	cs.buf = cs.buf[:0]
	cs.sig = cs.sig[:0]
	canonPool.Put(cs)
}

// workScratch is the reusable working state of the mutation kernels
// (PRUNE, garbage collection, COMPRESS). Same pool discipline as
// canonScratch: single-goroutine use between get/put, nothing escapes.
type workScratch struct {
	marks    []bool
	stack    []int
	nodeIDs  []NodeID
	edges    []edge
	counts   []int32
	pos      []int32 // Graph.posTable
	edgeRuns [][]edge
}

var workPool = sync.Pool{New: func() any {
	cacheStats.poolNews.Add(1)
	return new(workScratch)
}}

func getWorkScratch() *workScratch {
	cacheStats.poolGets.Add(1)
	return workPool.Get().(*workScratch)
}

func putWorkScratch(ws *workScratch) {
	ws.marks = ws.marks[:0]
	ws.stack = ws.stack[:0]
	ws.nodeIDs = ws.nodeIDs[:0]
	ws.edges = ws.edges[:0]
	ws.counts = ws.counts[:0]
	ws.pos = ws.pos[:0]
	workPool.Put(ws)
}

// compressScratch is the reusable working state of one COMPRESS round,
// with the same pool discipline.
type compressScratch struct {
	spaths    []SPathSet
	paths     []SPath
	structure []int32
	bucket    map[compressKey]int32
	bucketOf  []int32
	start     []int32
	fill      []int32
	members   []int32
	parent    []int32
	size      []int32 // summarize: class sizes by root
	gid       []int32 // summarize: class numbers by root
	end       []int32 // summarize: class layout in group
	pos       []int32 // summarize: Graph.posTable
	newID     []NodeID
	group     []*Node
}

var compressPool = sync.Pool{New: func() any {
	cacheStats.poolNews.Add(1)
	return &compressScratch{bucket: make(map[compressKey]int32)}
}}

func getCompressScratch() *compressScratch {
	cacheStats.poolGets.Add(1)
	return compressPool.Get().(*compressScratch)
}

func putCompressScratch(cs *compressScratch) { compressPool.Put(cs) }

// grow returns s resized to n, reusing capacity; the contents are
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZeroed is grow with every element reset to its zero value.
func growZeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}
