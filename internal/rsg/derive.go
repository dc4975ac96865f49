package rsg

import "sort"

// SPathOf computes the SPATH derived property of a node: the set of
// access paths of length <= 1 from pvars to it (Sect. 3). The
// zero-length path <p, .> is present when p references the node
// directly; <p, sel> is present when p references a node m and
// <m, sel, n> is in NL.
func (g *Graph) SPathOf(id NodeID) SPathSet {
	var s SPathSet
	for _, e := range g.pl {
		if e.id == id {
			s.paths = append(s.paths, spathOf(e.sym, 0))
		}
		for _, ed := range g.outRun(e.id) {
			if ed.b == id {
				s.paths = append(s.paths, spathOf(e.sym, ed.sel))
			}
		}
	}
	return s
}

// spathsByPos fills sets (parallel to g.ids, pre-zeroed) with the SPATH
// of every node, carving all of them out of one backing array: buf,
// reused when it is large enough and returned for the caller to keep.
// PL is walked in pvar-rank order and each pvar's out run in
// selector-rank order, so every set receives its paths already in
// SPath order (SPathOf relies on the same walk) and nothing is sorted
// or copied. A pvar contributes one zero-length path and one path per
// link of its node, and no two of those coincide.
func (g *Graph) spathsByPos(sets []SPathSet, buf []SPath) []SPath {
	if len(g.pl) == 0 {
		return buf
	}
	ws := getWorkScratch()
	pos := g.posTable(ws.pos)
	count := growZeroed(ws.counts, len(g.ids))
	runs := ws.edgeRuns[:0] // each pvar's out run, found once
	total := 0
	for _, e := range g.pl {
		count[pos[e.id]]++
		run := g.outRun(e.id)
		for _, ed := range run {
			count[pos[ed.b]]++
		}
		runs = append(runs, run)
		total += 1 + len(run)
	}
	if cap(buf) < total {
		buf = make([]SPath, total)
	}
	off := 0
	for p, c := range count {
		end := off + int(c)
		sets[p].paths = buf[off:off:end]
		off = end
	}
	for i, e := range g.pl {
		p := pos[e.id]
		sets[p].paths = append(sets[p].paths, spathOf(e.sym, 0))
		for _, ed := range runs[i] {
			p := pos[ed.b]
			sets[p].paths = append(sets[p].paths, spathOf(e.sym, ed.sel))
		}
	}
	clear(runs)
	ws.pos, ws.counts, ws.edgeRuns = pos, count, runs
	putWorkScratch(ws)
	return buf[:0]
}

// SPaths computes SPATH for every node at once, indexed by position
// (parallel to NodeIDs). On a frozen graph the slice is computed once at
// freeze time and shared; callers must not modify it or its sets.
func (g *Graph) SPaths() []SPathSet {
	if g.frozen {
		return g.cSPaths
	}
	sets := make([]SPathSet, len(g.ids))
	g.spathsByPos(sets, nil)
	return sets
}

// StructureOf computes the STRUCTURE derived property for every node,
// indexed by position: the weakly-connected component the node belongs
// to, as a class id (the position of the component's first node). Two
// nodes of one graph have the same STRUCTURE iff their class ids are
// equal. Nodes of different components are never summarized
// ("Structure avoids the summarization of nodes representing
// non-connected components"). The paper names a component by the pvars
// that reach it, but a pvar references one node and so lies in exactly
// one component: the class id is the same partition without building a
// name per node.
func (g *Graph) StructureOf() []int32 {
	return g.structureByPos(make([]int32, len(g.ids)))
}

// structureByPos is StructureOf into class (len(g.ids) long, any
// contents), by union-find over undirected adjacency on positions.
func (g *Graph) structureByPos(class []int32) []int32 {
	for i := range class {
		class[i] = int32(i)
	}
	find := func(x int32) int32 {
		for class[x] != x {
			class[x] = class[class[x]]
			x = class[x]
		}
		return x
	}
	ws := getWorkScratch()
	pos := g.posTable(ws.pos)
	for _, e := range g.outE {
		ra, rb := find(pos[e.a]), find(pos[e.b])
		if ra != rb {
			class[max(ra, rb)] = min(ra, rb)
		}
	}
	ws.pos = pos
	putWorkScratch(ws)
	for i := range class {
		class[i] = find(int32(i))
	}
	return class
}

// Reachable returns the set of nodes reachable from any pvar by
// following NL links forward.
func (g *Graph) Reachable() map[NodeID]struct{} {
	seen := make(map[NodeID]struct{}, len(g.ids))
	var stack []NodeID
	for _, e := range g.pl {
		if _, ok := seen[e.id]; !ok {
			seen[e.id] = struct{}{}
			stack = append(stack, e.id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range g.outRun(id) {
			if _, ok := seen[ed.b]; !ok {
				seen[ed.b] = struct{}{}
				stack = append(stack, ed.b)
			}
		}
	}
	return seen
}

// markReachable sets ws.marks (parallel to g.ids) for every node
// reachable from a pvar, by a DFS on ws.stack over the out-run offsets
// in ws.counts and the position table in ws.pos.
func (g *Graph) markReachable(ws *workScratch) {
	ws.marks = growZeroed(ws.marks, len(g.ids))
	ws.counts = g.outStarts(ws.counts)
	ws.pos = g.posTable(ws.pos)
	reach, starts, pos, stack := ws.marks, ws.counts, ws.pos, ws.stack[:0]
	for _, e := range g.pl {
		p := int(pos[e.id])
		if !reach[p] {
			reach[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		at := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range g.outE[starts[at]:starts[at+1]] {
			p := int(pos[ed.b])
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	ws.stack = stack
}

// CollectGarbage removes every node not reachable from a pvar and
// returns how many nodes were removed. Memory that no pvar can reach
// can never be navigated by the program again, so dropping it keeps the
// graph a valid approximation of the live structure (this is how node
// n2 disappears in the paper's Fig. 1(c) walk-through).
//
// A garbage location may still reference surviving locations, so before
// a garbage node is dropped, the definite SELIN entries of its
// surviving link targets are demoted to possible when the dropped link
// was their witness: the incoming reference still exists concretely,
// the graph just stops modelling its origin.
func (g *Graph) CollectGarbage() int {
	n := len(g.ids)
	if n == 0 {
		return 0
	}
	ws := getWorkScratch()
	g.markReachable(ws)
	// Snapshot the garbage IDs: positions shift as nodes are removed.
	ws.nodeIDs = ws.nodeIDs[:0]
	for pos, ok := range ws.marks {
		if !ok {
			ws.nodeIDs = append(ws.nodeIDs, g.ids[pos])
		}
	}
	// Survivor check by ID against the pre-removal snapshot: garbage
	// IDs are in ws.nodeIDs (sorted, since positions are).
	garbage := ws.nodeIDs
	isGarbage := func(id NodeID) bool {
		i := sort.Search(len(garbage), func(i int) bool { return garbage[i] >= id })
		return i < len(garbage) && garbage[i] == id
	}
	for _, id := range garbage {
		for _, ed := range g.outRun(id) {
			if ed.b == id || isGarbage(ed.b) {
				continue
			}
			dst := g.Node(ed.b)
			if dst != nil && dst.SelIn.HasSym(ed.sel) {
				dst.SelIn.RemoveSym(ed.sel)
				dst.PosSelIn.AddSym(ed.sel)
			}
		}
		g.RemoveNode(id)
	}
	removed := len(garbage)
	putWorkScratch(ws)
	return removed
}

// DefiniteLink reports whether <src, sel, dst> holds in *every* concrete
// configuration the graph covers: the source is a singleton whose sel
// reference definitely exists (sel in SELOUT) and dst is its only
// possible target.
func (g *Graph) DefiniteLink(src NodeID, sel string, dst NodeID) bool {
	return g.definiteLinkSym(src, selTab.lookup(sel), dst)
}

// DefiniteLinkSym is DefiniteLink addressed by interned selector.
func (g *Graph) DefiniteLinkSym(src NodeID, sel Sym, dst NodeID) bool {
	return g.definiteLinkSym(src, sel, dst)
}

func (g *Graph) definiteLinkSym(src NodeID, sel Sym, dst NodeID) bool {
	s := g.Node(src)
	if s == nil || !s.Singleton || !s.SelOut.HasSym(sel) {
		return false
	}
	t, ok := g.soleTarget(src, sel)
	return ok && t == dst
}

// RefreshSingleton recomputes the share and reference-pattern state of a
// singleton node from the graph after links around it changed. For a
// singleton the graph is the ground truth:
//
//   - sel in SELIN iff some incoming sel link is definite; otherwise
//     sel in PosSELIN iff any incoming sel link remains.
//   - SHSEL(n, sel) can be reset to false when every remaining incoming
//     sel link comes from a singleton source and at most one remains.
//     Links from summary sources have unknown multiplicity, so they can
//     sustain sharing but never prove its absence: in that case the
//     previous value is kept.
//   - SHARED aggregates the same reasoning across all selectors.
//
// Outgoing definite sets are left to the abstract semantics, which
// knows whether a store created or destroyed the reference; this
// function only demotes definite-out entries that no longer have any
// witnessing link.
func (g *Graph) RefreshSingleton(id NodeID) {
	n := g.Node(id)
	if n == nil || !n.Singleton {
		return
	}
	// Incoming reference pattern.
	var allSels SelSet
	for _, e := range g.inRun(id) {
		allSels.AddSym(e.sel)
	}
	allSels = allSels.Union(n.SelIn).Union(n.PosSelIn)
	allSels.EachSym(func(sel Sym) {
		definite := false
		any := false
		for _, e := range g.inRun(id) {
			if e.sel != sel {
				continue
			}
			any = true
			if g.definiteLinkSym(e.b, sel, id) {
				definite = true
				break
			}
		}
		switch {
		case !any:
			n.ClearInSym(sel)
		case definite:
			n.MarkDefiniteInSym(sel)
		default:
			n.SelIn.RemoveSym(sel)
			n.MarkPossibleInSym(sel)
		}
	})
	// Share information. Refresh only ever *lowers* the share flags:
	// sharing is created exclusively by the store semantics (absem's
	// link), where the update is exact. Raising here on link counts
	// would confuse may-links (e.g. the duplicated candidates left by
	// materialization) with simultaneous references and poison whole
	// fixed points with spurious SHARED attributes.
	totalLinks := 0
	anySummarySource := false
	run := g.inRun(id)
	for i := 0; i < len(run); i++ {
		// Count and classify the sources of one selector. The run is
		// (src, sel-rank) ordered, so same-sel entries are not
		// contiguous; gather per selector explicitly.
		sel := run[i].sel
		seenBefore := false
		for j := 0; j < i; j++ {
			if run[j].sel == sel {
				seenBefore = true
				break
			}
		}
		if seenBefore {
			continue
		}
		srcs := 0
		allSingleton := true
		for j := i; j < len(run); j++ {
			if run[j].sel != sel {
				continue
			}
			srcs++
			if sn := g.Node(run[j].b); sn == nil || !sn.Singleton {
				allSingleton = false
				anySummarySource = true
			}
		}
		if allSingleton && srcs < 2 {
			n.ShSel.RemoveSym(sel)
		}
		totalLinks += srcs
	}
	// Drop SHSEL entries for selectors with no incoming links at all.
	n.ShSel.EachSym(func(sel Sym) {
		if g.countSources(id, sel) == 0 {
			n.ShSel.RemoveSym(sel)
		}
	})
	if !anySummarySource && totalLinks < 2 && n.ShSel.Empty() {
		n.Shared = false
	}
	// Demote definite-out entries with no witnessing link.
	n.SelOut.EachSym(func(sel Sym) {
		if !g.hasTarget(id, sel) {
			n.ClearOutSym(sel)
		}
	})
	n.PosSelOut.EachSym(func(sel Sym) {
		if !g.hasTarget(id, sel) {
			n.PosSelOut.RemoveSym(sel)
		}
	})
}
