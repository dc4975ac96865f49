package rsg

// Compress applies the paper's COMPRESS function (Sect. 3.1) to the
// graph in place: every maximal group of chain-compatible nodes
// (C_NODES_RSG) is summarized into one node via MERGE_COMP_NODES, and
// PL/NL are remapped through MAP_RSG. The process repeats until no two
// nodes are compatible, because a merge changes SPATHs and structure
// and can enable further merges. Returns the number of merges applied.
func Compress(g *Graph, lvl Level) int {
	total := 0
	for {
		merges := compressOnce(g, lvl)
		if merges == 0 {
			return total
		}
		total += merges
	}
}

// compressKey buckets the nodes of one COMPRESS round by the properties
// summarization requires to be equal: TYPE, SHARED, SHSEL, the definite
// reference patterns and TOUCH, plus the STRUCTURE class. The symbol
// sets enter by their bitmasks only, so nodes whose sets differ only
// past the 64th symbol share a bucket; C_NODES_RSG compares all of them
// in full except TOUCH below L3, which compressOnce compares itself.
type compressKey struct {
	typ                         string
	shared                      bool
	shSel, selIn, selOut, touch uint64
	class                       int32
}

// compressOnce performs one summarization round.
func compressOnce(g *Graph, lvl Level) int {
	n := len(g.ids)
	if n < 2 {
		return 0
	}
	cs := getCompressScratch()
	defer putCompressScratch(cs)
	cs.spaths = growZeroed(cs.spaths, n)
	cs.paths = g.spathsByPos(cs.spaths, cs.paths)
	structure := g.structureByPos(grow(cs.structure, n))
	cs.structure = structure

	// Bucket the positions by key, buckets numbered in order of first
	// occurrence, then lay them out contiguously in ascending position
	// order (a stable counting sort), so the pairwise C_NODES_RSG tests
	// only run within plausible groups.
	bucketOf := grow(cs.bucketOf, n)
	cs.bucketOf = bucketOf
	clear(cs.bucket)
	for pos, nd := range g.nodes {
		k := compressKey{
			typ: nd.Type, shared: nd.Shared,
			shSel: nd.ShSel.b.mask, selIn: nd.SelIn.b.mask, selOut: nd.SelOut.b.mask,
			touch: nd.Touch.b.mask, class: structure[pos],
		}
		b, ok := cs.bucket[k]
		if !ok {
			b = int32(len(cs.bucket))
			cs.bucket[k] = b
		}
		bucketOf[pos] = b
	}
	start := growZeroed(cs.start, len(cs.bucket)+1)
	cs.start = start
	for _, b := range bucketOf {
		start[b+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	members := grow(cs.members, n)
	cs.members = members
	fill := grow(cs.fill, len(start))
	cs.fill = fill
	copy(fill, start)
	for pos, b := range bucketOf {
		members[fill[b]] = int32(pos)
		fill[b]++
	}

	// Union-find for chain compatibility (the paper summarizes chains
	// n1..nk with C_NODES_RSG(n_i, n_{i+1}) for consecutive pairs). The
	// root of every class is its smallest position.
	parent := grow(cs.parent, n)
	cs.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	merges := 0
	for b := 0; b+1 < len(start); b++ {
		group := members[start[b]:start[b+1]]
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, c := group[i], group[j]
				ra, rc := find(a), find(c)
				if ra == rc {
					continue
				}
				na, nc := g.nodes[a], g.nodes[c]
				if na.Touch.Equal(nc.Touch) && CNodesRSG(lvl, na, nc, cs.spaths[a], cs.spaths[c], structure[a], structure[c]) {
					parent[max(ra, rc)] = min(ra, rc)
					merges++
				}
			}
		}
	}
	if merges == 0 {
		return 0
	}
	summarize(g, find, cs)
	return merges
}

// summarize replaces every union-find class of two or more nodes by one
// summary node (MERGE_COMP_NODES), retargeting PL and NL through the
// map member -> summary (the MAP_RSG of the paper). Classes are taken
// in ascending root position and get fresh IDs in that order; the
// summary nodes follow the survivors, which keep their IDs. All summary
// nodes are built from the unchanged graph: the CYCLELINKS context
// MergeNodes reads (whether a node has a link through a selector)
// survives the retargeting of every other class.
func summarize(g *Graph, find func(int32) int32, cs *compressScratch) {
	n := len(g.ids)
	size := growZeroed(cs.size, n)
	cs.size = size
	for pos := range g.ids {
		size[find(int32(pos))]++
	}
	// Number the classes by ascending root (the root is the smallest
	// member), then lay their members out contiguously in ascending
	// position: class k is flat[end[k-1]:end[k]].
	gid := grow(cs.gid, n) // root position -> class number
	cs.gid = gid
	end := growZeroed(cs.end, n+1)
	cs.end = end
	var groups int32
	for pos, sz := range size { // only roots have a nonzero size
		if sz >= 2 {
			gid[pos] = groups
			groups++
			end[groups] = end[groups-1] + sz
		}
	}
	flat := grow(cs.group, int(end[groups]))
	cs.group = flat
	newID := grow(cs.newID, n)
	cs.newID = newID
	for pos := range g.ids {
		r := find(int32(pos))
		if size[r] < 2 {
			newID[pos] = g.ids[pos]
			continue
		}
		k := gid[r]
		newID[pos] = g.nextID + NodeID(k) + 1
		flat[end[k]] = g.nodes[pos]
		end[k]++
	}
	// Each end[k] has advanced to class k's end; its start is end[k-1],
	// or 0 for k = 0.
	summaries := make([]*Node, groups)
	lo := int32(0)
	for k := range summaries {
		hi := end[k]
		summaries[k] = MergeCompNodes(g, flat[lo:hi], true)
		summaries[k].ID = g.nextID + NodeID(k) + 1
		lo = hi
	}
	clear(flat)

	at := g.posTable(cs.pos)
	cs.pos = at
	for i := range g.pl {
		g.pl[i].id = newID[at[g.pl[i].id]]
	}
	for i := range g.outE {
		e := &g.outE[i]
		e.a, e.b = newID[at[e.a]], newID[at[e.b]]
	}
	keep := 0
	for pos, nd := range g.nodes {
		if newID[pos] == g.ids[pos] {
			g.ids[keep], g.nodes[keep] = g.ids[pos], nd
			keep++
		}
	}
	clear(g.nodes[keep:])
	g.ids, g.nodes = g.ids[:keep], g.nodes[:keep]
	for _, s := range summaries {
		g.ids = append(g.ids, s.ID)
		g.nodes = append(g.nodes, s)
	}
	g.nextID += NodeID(groups)
	g.setLinks(g.outE)
}
