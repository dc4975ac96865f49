package rsg

import "testing"

// Allocation regression guards for the hot kernels on the flat
// encoding. The ceilings are ~2x the measured counts at the time they
// were recorded — loose enough to survive toolchain drift, tight
// enough that reintroducing a per-edge or per-node map blows through
// them immediately.

// midGraph returns a frozen chain of 24 singleton nodes with a pvar on
// the head: big enough that per-node costs dominate the fixed ones,
// small enough to keep the guards fast.
func midGraph() *Graph {
	g, _ := chain(24)
	g.Freeze()
	return g
}

func TestCloneAllocCeiling(t *testing.T) {
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		_ = g.Clone()
	})
	// Measured ~10 allocs/op: the Graph shell plus one backing array
	// per flat slice (nodes, ids, index, outE, inE, pvars...).
	if avg > 20 {
		t.Fatalf("Clone of a frozen %d-node graph: %.1f allocs/op, ceiling 20", g.NumNodes(), avg)
	}
}

func TestCompressAllocCeiling(t *testing.T) {
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		c := g.Clone()
		Compress(c, L1)
	})
	// Measured 8 allocs/op: the Clone, plus the summary-node slice and
	// the one summary node of the chain-middle summarization; the round
	// scratch is pooled. Up to 26 under -race, whose sync.Pool drops a
	// quarter of the scratches put back.
	if avg > 48 {
		t.Fatalf("Clone+Compress of a frozen %d-node graph: %.1f allocs/op, ceiling 48", g.NumNodes(), avg)
	}
}

func TestJoinAllocCeiling(t *testing.T) {
	g1 := midGraph()
	g2 := midGraph()
	if !Compatible(L1, g1, g2) {
		t.Fatal("fixture graphs must be compatible")
	}
	avg := testing.AllocsPerRun(100, func() {
		_ = Join(L1, g1, g2)
	})
	// Measured 9 allocs/op: the Graph shell, its flat slices, one
	// backing array for all nodes, and the matching tables (up to 11
	// under -race).
	if avg > 24 {
		t.Fatalf("Join of two frozen %d-node graphs: %.1f allocs/op, ceiling 24", g1.NumNodes(), avg)
	}
}

func TestSPathsAllocCeiling(t *testing.T) {
	g := midGraph().Clone() // unfrozen: SPaths derives instead of serving the cache
	avg := testing.AllocsPerRun(100, func() {
		_ = g.SPaths()
	})
	// Measured 2 allocs/op: the per-position set slice and the one
	// backing array every set is carved from (up to 3 under -race).
	if avg > 6 {
		t.Fatalf("SPaths of a %d-node graph: %.1f allocs/op, ceiling 6", g.NumNodes(), avg)
	}
}

func TestStructureOfAllocCeiling(t *testing.T) {
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		_ = g.StructureOf()
	})
	// Measured 1 alloc/op: the returned class slice.
	if avg > 2 {
		t.Fatalf("StructureOf of a %d-node graph: %.1f allocs/op, ceiling 2", g.NumNodes(), avg)
	}
}
