package rsg

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// Tests of the dense node positions (DESIGN.md §10): Freeze renumbers
// nodes to 1..n without moving the digest, and posOf stays exact on
// graphs that RemoveNode has made sparse again.

// posOfByScan is the reference for posOf: a linear scan.
func posOfByScan(g *Graph, id NodeID) int {
	for i, x := range g.ids {
		if x == id {
			return i
		}
	}
	return -1
}

func checkPositions(t *testing.T, g *Graph, step string) {
	t.Helper()
	for id := NodeID(-1); id <= g.nextID+2; id++ {
		if got, want := g.posOf(id), posOfByScan(g, id); got != want {
			t.Fatalf("%s: posOf(n%d) = %d, linear scan says %d", step, id, got, want)
		}
	}
}

func checkDense(t *testing.T, g *Graph, step string) {
	t.Helper()
	for i, id := range g.NodeIDs() {
		if id != NodeID(i+1) || g.nodes[i].ID != id {
			t.Fatalf("%s: frozen graph has n%d (node says n%d) at position %d, want n%d",
				step, id, g.nodes[i].ID, i, i+1)
		}
	}
}

// checkFreeze freezes g and checks it against an unfrozen clone taken
// just before: IDs become exactly 1..n, the digest and signature do not
// move, and Links() lists the same links in the same order, up to the
// monotone renaming old ID -> position + 1.
func checkFreeze(t *testing.T, g *Graph, step string) {
	t.Helper()
	pre := g.Clone()
	wantSig := Signature(pre)
	g.Freeze()
	checkDense(t, g, step)
	if sig := Signature(g); sig != wantSig {
		t.Fatalf("%s: renumbering changed the signature\n--- before\n%s\n--- after\n%s", step, wantSig, sig)
	}
	if g.Digest() != pre.Digest() {
		t.Fatalf("%s: renumbering changed the digest", step)
	}
	renamed := make(map[NodeID]NodeID, pre.NumNodes())
	for i, id := range pre.NodeIDs() {
		renamed[id] = NodeID(i + 1)
	}
	before, after := pre.Links(), g.Links()
	if len(before) != len(after) {
		t.Fatalf("%s: %d links before freezing, %d after", step, len(before), len(after))
	}
	for i, l := range before {
		want := Link{Src: renamed[l.Src], Sel: l.Sel, Dst: renamed[l.Dst]}
		if after[i] != want {
			t.Fatalf("%s: link %d is %s after freezing, want %s", step, i, after[i], want)
		}
	}
}

func TestPropertyDensePositions(t *testing.T) {
	types := []string{"a", "b"}
	sels := []Sym{SelSym("nxt"), SelSym("prv"), SelSym("dat")}
	pvars := []Sym{PvarSym("p"), PvarSym("q")}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		for op := 0; op < 60; op++ {
			ids := g.NodeIDs()
			var step string
			switch k := r.Intn(12); {
			case k < 3 || len(ids) == 0:
				step = "AddNode"
				g.AddNode(NewNode(types[r.Intn(len(types))]))
			case k < 5:
				step = "RemoveNode"
				g.RemoveNode(ids[r.Intn(len(ids))])
			case k < 8:
				step = "AddLinkSym"
				g.AddLinkSym(ids[r.Intn(len(ids))], sels[r.Intn(len(sels))], ids[r.Intn(len(ids))])
			case k < 9:
				step = "SetPvarSym"
				g.SetPvarSym(pvars[r.Intn(len(pvars))], ids[r.Intn(len(ids))])
			case k < 10:
				step = "Clone"
				g = g.Clone()
			case k < 11:
				step = "Freeze"
				checkFreeze(t, g, step)
				g = g.Clone()
			default:
				step = "EncodeDecode"
				checkFreeze(t, g, step)
				d, err := DecodeFrozen(EncodeFrozen(g))
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				checkDense(t, d, step)
				if d.Digest() != g.Digest() {
					t.Fatalf("seed %d: codec round trip changed the digest", seed)
				}
				g = d.Clone()
			}
			checkPositions(t, g, step)
		}
	}
}

// storeRecord is one graph of testdata/barneshut_l1_store.json: the
// EncodeFrozen bytes and digest of a Barnes-Hut L1 graph, written by
// the code before Freeze renumbered nodes. The exit set's graphs are
// first; the rest come from earlier statements and carry sparse IDs.
type storeRecord struct {
	Stmt   int    `json:"stmt"`
	Digest string `json:"digest"`
	Bytes  []byte `json:"bytes"`
}

// TestDecodeSparseStoreRecords: store files written before dense
// positions still load, to the same digests, with IDs 1..n.
func TestDecodeSparseStoreRecords(t *testing.T) {
	raw, err := os.ReadFile("testdata/barneshut_l1_store.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []storeRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	renumbered := 0
	for i, rec := range recs {
		g, err := DecodeFrozen(rec.Bytes)
		if err != nil {
			t.Fatalf("record %d (stmt %d): %v", i, rec.Stmt, err)
		}
		if got := g.Digest().String(); got != rec.Digest {
			t.Errorf("record %d (stmt %d): digest %s, recorded %s", i, rec.Stmt, got, rec.Digest)
		}
		checkDense(t, g, "DecodeFrozen")
		if !bytes.Equal(EncodeFrozen(g), rec.Bytes) {
			renumbered++
		}
	}
	if len(recs) < 2 || renumbered == 0 {
		t.Fatalf("%d records, %d renumbered: the fixture must hold sparse-ID graphs", len(recs), renumbered)
	}
}
