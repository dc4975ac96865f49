package rsg

import "fmt"

// MaterializeSym extracts the single concrete location referenced by
// <src, sel> out of a summary node, the focusing step of the abstract
// semantics (the paper's Fig. 1(d), where node n4 is materialized from
// the summary n2 before the x->nxt link can be safely removed).
//
// Preconditions: src is a singleton node (pvar-referenced nodes always
// are) and, after DIVIDE, it has exactly one sel destination. When that
// destination is already a singleton, nothing needs to change and it is
// returned as-is.
//
// Otherwise the summary t is split into the materialized singleton
// n_mat (returned) and the remainder t (which keeps representing the
// other locations and may cover zero locations in some configurations —
// embeddings are not required to be surjective):
//
//   - <src, sel, t> is retargeted to n_mat.
//   - Every other incoming link of t is duplicated onto n_mat, except
//     incoming sel links when SHSEL(t, sel) is false: the materialized
//     location already carries its only sel reference.
//   - Every outgoing link of t is duplicated onto n_mat. Self links are
//     expanded over {n_mat, t} under the same SHSEL constraint.
//   - n_mat inherits t's properties, with sel added to its definite
//     SELIN set.
//
// The duplication is deliberately conservative; the caller runs PRUNE
// afterwards, and the CYCLELINKS/SHSEL rules cut the spurious links
// (exactly how the paper's example arrives at Fig. 1(d)). The selector
// is an interned symbol.
func MaterializeSym(g *Graph, src NodeID, sel Sym) NodeID {
	s := g.Node(src)
	if s == nil {
		panic(fmt.Sprintf("rsg: MaterializeSym: no node n%d", src))
	}
	tID, ok := g.soleTarget(src, sel)
	if !ok {
		panic(fmt.Sprintf("rsg: MaterializeSym(n%d, %s): %d targets, want 1 (divide first)",
			src, selTab.name(sel), g.countTargets(src, sel)))
	}
	t := g.Node(tID)
	if t.Singleton {
		return tID
	}

	exclusiveSel := !t.SharedBySym(sel) // each location has at most one sel ref

	nm := t.Clone()
	nm.Singleton = true
	nm.MarkDefiniteInSym(sel)
	nm = g.AddNode(nm)

	// Retarget the triggering link.
	g.RemoveLinkSym(src, sel, tID)
	g.AddLinkSym(src, sel, nm.ID)

	// Snapshot t's links before duplicating: AddLink mutates the runs.
	ws := getWorkScratch()

	// Incoming links of t (excluding self links, handled below).
	ws.edges = append(ws.edges[:0], g.inRun(tID)...)
	for _, e := range ws.edges {
		if e.b == tID {
			continue
		}
		if e.sel == sel && exclusiveSel {
			continue // n_mat's only sel reference is the one from src
		}
		g.AddLinkSym(e.b, e.sel, nm.ID)
	}

	// Outgoing links of t (excluding self links).
	ws.edges = append(ws.edges[:0], g.outRun(tID)...)
	for _, e := range ws.edges {
		if e.b == tID {
			continue
		}
		g.AddLinkSym(nm.ID, e.sel, e.b)
	}

	// Self links <t, sel', t> expand over {n_mat, t}.
	for _, e := range ws.edges {
		if e.b != tID {
			continue
		}
		selPrime := e.sel
		blockedIntoNm := selPrime == sel && exclusiveSel
		// t -> n_mat
		if !blockedIntoNm {
			g.AddLinkSym(tID, selPrime, nm.ID)
		}
		// n_mat -> t
		g.AddLinkSym(nm.ID, selPrime, tID)
		// n_mat -> n_mat
		if !blockedIntoNm {
			g.AddLinkSym(nm.ID, selPrime, nm.ID)
		}
	}
	putWorkScratch(ws)

	return nm.ID
}
