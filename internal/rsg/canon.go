package rsg

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// Signature returns a canonical textual form of the graph, independent
// of node IDs for deterministically generated graphs. It is used for
// fixed-point detection (has an RSRSG changed?) and for de-duplicating
// graphs inside an RSRSG.
//
// The ordering is computed by a breadth-first traversal from the pvars
// in sorted order, following selectors in sorted order; ties between
// sibling targets are broken by a local node descriptor (properties +
// SPATH), and as a last resort by node ID. The last-resort tie-break
// means two differently-generated isomorphic graphs can, in rare
// symmetric cases, produce different signatures; that costs a duplicate
// RSG in the set (a precision/space issue, never a soundness issue),
// and cannot prevent fixed-point detection because the transfer
// functions themselves are deterministic.
//
// Hot paths should prefer the fixed-size binary Digest over the full
// string: the two agree (Digest is a hash of exactly these bytes), and
// frozen graphs memoize the digest.
func Signature(g *Graph) string {
	cs := getCanonScratch()
	s := string(appendSignature(g, make([]byte, 0, 512), cs))
	putCanonScratch(cs)
	return s
}

// Digest is a fixed-size binary summary of a graph's Signature. Two
// graphs have equal digests iff they have equal signatures (up to a
// 2^-128 collision chance). Digest is a comparable value type, so it can
// key maps directly without the allocation and comparison cost of the
// multi-kilobyte signature strings it replaces.
type Digest [16]byte

// String renders the digest in hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Less orders digests lexicographically; used to keep RSRSG entries in
// a deterministic order.
func (d Digest) Less(o Digest) bool {
	for i := range d {
		if d[i] != o[i] {
			return d[i] < o[i]
		}
	}
	return false
}

// computeDigest hashes the signature bytes without materializing the
// string, accumulating them in pooled scratch.
func computeDigest(g *Graph) Digest {
	cs := getCanonScratch()
	cs.sig = appendSignature(g, cs.sig[:0], cs)
	sum := sha256.Sum256(cs.sig)
	putCanonScratch(cs)
	var d Digest
	copy(d[:], sum[:16])
	return d
}

// appendSignature appends the canonical encoding of g to buf, working
// entirely in position-indexed scratch (positions into g.ids), with
// byte appends instead of fmt so the dedup and equality paths of the
// analysis do not allocate per emitted line.
func appendSignature(g *Graph, buf []byte, cs *canonScratch) []byte {
	n := len(g.ids)
	canonicalOrder(g, cs)
	cs.idx = grow(cs.idx, n)
	for ci, pos := range cs.order {
		cs.idx[pos] = int32(ci)
	}

	psnap := pvarTab.load()
	for _, e := range g.pl {
		buf = append(buf, 'P', ' ')
		buf = append(buf, psnap.names[e.sym-1]...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(cs.idx[cs.pos[e.id]]), 10)
		buf = append(buf, '\n')
	}
	for ci, pos := range cs.order {
		buf = append(buf, 'N', ' ')
		buf = strconv.AppendInt(buf, int64(ci), 10)
		buf = append(buf, ' ')
		buf = append(buf, cs.descriptor(pos)...)
		buf = append(buf, '\n')
	}
	// Emit edges grouped by canonical source index and selector; only
	// the destination indices of each small group need sorting. The out
	// run of a node is already (selector-name, dst) ordered.
	ssnap := selTab.load()
	for _, pos := range cs.order {
		srcIdx := int64(cs.idx[pos])
		run := g.outE[cs.starts[pos]:cs.starts[pos+1]]
		for i := 0; i < len(run); {
			sel := run[i].sel
			cs.dsts = cs.dsts[:0]
			for ; i < len(run) && run[i].sel == sel; i++ {
				cs.dsts = append(cs.dsts, int(cs.idx[cs.pos[run[i].b]]))
			}
			slices.Sort(cs.dsts)
			name := ssnap.names[sel-1]
			for _, d := range cs.dsts {
				buf = append(buf, 'L', ' ')
				buf = strconv.AppendInt(buf, srcIdx, 10)
				buf = append(buf, ' ')
				buf = append(buf, name...)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(d), 10)
				buf = append(buf, '\n')
			}
		}
	}
	return buf
}

// appendNodeDescriptor encodes every intrinsic property of a node (ID
// excluded) for use in signatures and tie-breaking.
func appendNodeDescriptor(buf []byte, n *Node) []byte {
	buf = append(buf, n.Type...)
	if n.Singleton {
		buf = append(buf, '|', '1', '|')
	} else {
		buf = append(buf, '|', '*', '|')
	}
	if n.Shared {
		buf = append(buf, 'S', '|')
	} else {
		buf = append(buf, 's', '|')
	}
	buf = n.ShSel.appendTo(buf)
	buf = append(buf, '|')
	buf = n.SelIn.appendTo(buf)
	buf = append(buf, '|')
	buf = n.SelOut.appendTo(buf)
	buf = append(buf, '|')
	buf = n.PosSelIn.appendTo(buf)
	buf = append(buf, '|')
	buf = n.PosSelOut.appendTo(buf)
	buf = append(buf, '|')
	buf = n.Cycle.appendTo(buf)
	buf = append(buf, '|')
	buf = n.Touch.appendTo(buf)
	return buf
}

// localStart returns the offset of position i's tie-break key in cs.buf.
func (cs *canonScratch) localStart(i int) int32 {
	if i == 0 {
		return 0
	}
	return cs.localEnd[i-1]
}

// descriptor returns position i's node descriptor, as canonicalOrder
// left it in cs.buf.
func (cs *canonScratch) descriptor(i int) []byte { return cs.buf[cs.localStart(i):cs.descEnd[i]] }

// canonicalOrder fills cs.order with the node positions in BFS order
// from the sorted pvars, with deterministic tie-breaking; unreachable
// nodes follow in descriptor order. cs is left holding the per-position
// SPATH sets, tie-break keys and node descriptors, the out-run offsets
// and the position table.
func canonicalOrder(g *Graph, cs *canonScratch) {
	n := len(g.ids)
	cs.spaths = growZeroed(cs.spaths, n)
	cs.paths = g.spathsByPos(cs.spaths, cs.paths)
	// Every tie-break key lives in one byte buffer: node descriptor,
	// '@', SPATH. appendSignature reuses the descriptor part.
	cs.buf = cs.buf[:0]
	cs.descEnd = grow(cs.descEnd, n)
	cs.localEnd = grow(cs.localEnd, n)
	for i := range g.ids {
		cs.buf = appendNodeDescriptor(cs.buf, g.nodes[i])
		cs.descEnd[i] = int32(len(cs.buf))
		cs.buf = append(cs.buf, '@')
		cs.buf = cs.spaths[i].appendTo(cs.buf)
		cs.localEnd[i] = int32(len(cs.buf))
	}
	local := func(i int) []byte { return cs.buf[cs.localStart(i):cs.localEnd[i]] }

	cs.starts = g.outStarts(cs.starts)
	cs.pos = g.posTable(cs.pos)
	cs.order = cs.order[:0]
	cs.seen = growZeroed(cs.seen, n)
	push := func(pos int) {
		if !cs.seen[pos] {
			cs.seen[pos] = true
			cs.order = append(cs.order, pos)
		}
	}
	cs.queue = cs.queue[:0]
	for _, e := range g.pl {
		t := int(cs.pos[e.id])
		if !cs.seen[t] {
			push(t)
			cs.queue = append(cs.queue, t)
		}
	}
	for qi := 0; qi < len(cs.queue); qi++ {
		pos := cs.queue[qi]
		run := g.outE[cs.starts[pos]:cs.starts[pos+1]]
		for i := 0; i < len(run); {
			sel := run[i].sel
			cs.targets = cs.targets[:0]
			for ; i < len(run) && run[i].sel == sel; i++ {
				cs.targets = append(cs.targets, int(cs.pos[run[i].b]))
			}
			slices.SortFunc(cs.targets, func(a, b int) int {
				if cs.seen[a] != cs.seen[b] {
					if cs.seen[a] { // already-ordered nodes first, keeping BFS stable
						return -1
					}
					return 1
				}
				if c := bytes.Compare(local(a), local(b)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			for _, t := range cs.targets {
				if !cs.seen[t] {
					push(t)
					cs.queue = append(cs.queue, t)
				}
			}
		}
	}
	// Unreachable leftovers (normally garbage collected before this).
	restStart := len(cs.order)
	for pos := range g.ids {
		if !cs.seen[pos] {
			cs.order = append(cs.order, pos)
		}
	}
	rest := cs.order[restStart:]
	slices.SortFunc(rest, func(a, b int) int {
		if c := bytes.Compare(local(a), local(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
