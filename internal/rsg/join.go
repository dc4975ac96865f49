package rsg

import (
	"sort"
	"strings"
)

// AliasKey returns a canonical encoding of the paper's ALIAS(rsg)
// relation: the partition of the non-NULL pvars by referenced node.
// Two graphs have the same alias relation iff their keys are equal.
// Frozen graphs serve the key from the cache built at freeze time.
func AliasKey(g *Graph) string {
	if g.frozen {
		return g.cAlias
	}
	return aliasKey(g)
}

func aliasKey(g *Graph) string {
	if len(g.pl) == 0 {
		return ""
	}
	// g.pl is name-ordered, so each group's pvars come out sorted.
	groups := make(map[NodeID][]string, len(g.pl))
	snap := pvarTab.load()
	for _, e := range g.pl {
		groups[e.id] = append(groups[e.id], snap.names[e.sym-1])
	}
	keys := make([]string, 0, len(groups))
	for _, ps := range groups {
		keys = append(keys, strings.Join(ps, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// Compatible is the paper's COMPATIBLE(rsg1, rsg2) predicate
// (Sect. 4.3): the alias relations must match and, for every pvar, the
// two directly referenced nodes must satisfy the join compatibility
// check.
func Compatible(lvl Level, g1, g2 *Graph) bool {
	if AliasKey(g1) != AliasKey(g2) {
		return false
	}
	return CompatibleSP(lvl, g1, g2, g1.SPaths(), g2.SPaths())
}

// CompatibleSP is Compatible with the alias keys already known equal
// and the position-indexed SPATHs (as SPaths returns them) supplied by
// the caller; frozen graphs serve them from their freeze-time cache.
func CompatibleSP(lvl Level, g1, g2 *Graph, sp1, sp2 []SPathSet) bool {
	for _, e := range g1.pl {
		p1, p2 := g1.posOf(e.id), g2.pvarPos(e.sym)
		if p2 < 0 {
			return false // alias keys equal => cannot happen, defensive
		}
		if !CNodesJoin(lvl, g1.nodes[p1], g2.nodes[p2], sp1[p1], sp2[p2]) {
			return false
		}
	}
	return true
}

// Join implements the paper's JOIN(rsg1, rsg2) = rsg operation
// (Sect. 4.3) for two COMPATIBLE graphs. Compatible node pairs are
// merged with MERGE_NODES; unmatched nodes are copied; PL and NL are
// translated through the MAP function. The caller typically compresses
// the result.
//
// The paper's set formula merges every compatible (n_i, n_j) pair; to
// keep MAP well defined we compute a deterministic one-to-one matching:
// pvar-referenced nodes are matched by their alias group first (required
// so each pvar keeps a single target), then remaining nodes greedily in
// ID order.
//
// The result is built directly in dense form: g1's node at position p
// becomes node p+1 (merged with its match, if any), and g2's unmatched
// nodes follow in position order.
func Join(lvl Level, g1, g2 *Graph) *Graph {
	sp1, sp2 := g1.SPaths(), g2.SPaths()
	n1len, n2len := len(g1.ids), len(g2.ids)

	match := make([]int32, n1len) // g1 pos -> g2 pos, -1 unmatched
	for i := range match {
		match[i] = -1
	}
	map2 := make([]NodeID, n2len) // g2 pos -> out ID, 0 while unmatched

	// Pass 1: force-match pvar targets (alias groups correspond 1:1).
	for _, e := range g1.pl {
		p2 := g2.pvarPos(e.sym)
		if p2 < 0 {
			continue
		}
		p1 := g1.posOf(e.id)
		if match[p1] >= 0 {
			continue
		}
		match[p1] = int32(p2)
		map2[p2] = NodeID(p1 + 1)
	}

	// Pass 2: greedy matching of the remaining nodes, in ID order.
	for p1 := 0; p1 < n1len; p1++ {
		if match[p1] >= 0 {
			continue
		}
		node1 := g1.nodes[p1]
		for p2 := 0; p2 < n2len; p2++ {
			if map2[p2] != 0 {
				continue
			}
			if CNodes(lvl, node1, g2.nodes[p2], sp1[p1], sp2[p2]) {
				match[p1] = int32(p2)
				map2[p2] = NodeID(p1 + 1)
				break
			}
		}
	}

	// Pass 1 on graphs that are not COMPATIBLE can match one g2 node
	// twice; its last partner in g1 position order takes it.
	for p1, p2 := range match {
		if p2 >= 0 {
			map2[p2] = NodeID(p1 + 1)
		}
	}
	n := n1len
	for _, id := range map2 {
		if id == 0 {
			n++
		}
	}
	out := &Graph{ids: make([]NodeID, n), nodes: make([]*Node, n), nextID: NodeID(n)}
	backing := make([]Node, n)
	for p1, node1 := range g1.nodes {
		if p2 := match[p1]; p2 >= 0 {
			mergeNodesInto(&backing[p1], g1, node1, g2, g2.nodes[p2], false)
		} else {
			backing[p1] = *node1 // property sets are copy-on-write
		}
	}
	next := n1len
	for p2, node2 := range g2.nodes {
		if map2[p2] == 0 {
			backing[next] = *node2
			next++
			map2[p2] = NodeID(next)
		}
	}
	for i := range backing {
		backing[i].ID = NodeID(i + 1)
		out.ids[i] = NodeID(i + 1)
		out.nodes[i] = &backing[i]
	}

	// g1's PL maps position-wise, so it stays in pvar order; g2's
	// entries overwrite or insert (for compatible graphs they agree).
	out.pl = make([]plEntry, len(g1.pl), len(g1.pl)+len(g2.pl))
	for i, e := range g1.pl {
		out.pl[i] = plEntry{sym: e.sym, id: NodeID(g1.posOf(e.id) + 1)}
	}
	for _, e := range g2.pl {
		out.SetPvarSym(e.sym, map2[g2.posOf(e.id)])
	}
	edges := make([]edge, 0, len(g1.outE)+len(g2.outE))
	for _, e := range g1.outE {
		edges = append(edges, edge{NodeID(g1.posOf(e.a) + 1), e.sel, NodeID(g1.posOf(e.b) + 1)})
	}
	for _, e := range g2.outE {
		edges = append(edges, edge{map2[g2.posOf(e.a)], e.sel, map2[g2.posOf(e.b)]})
	}
	out.setLinks(edges)
	return out
}
