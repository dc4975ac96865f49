package absem

import (
	"repro/internal/rsg"
)

// StepFreeSym is the per-graph semantics of "free(x)". sels lists the
// interned pointer selectors of the freed struct type.
//
// free(NULL) is a no-op (as in C). Otherwise the freed cell's outgoing
// references die with it, which is exactly the effect of "x->sel =
// NULL" for every selector of its type — so the transfer composes the
// proven-sound StepSelNilSym over the selector list (division fixes
// SELIN on the former targets, PRUNE discards infeasible branches, and
// garbage collection drops structure that was only reachable through
// the freed cell, mirroring the concrete interpreter's GC of cells
// stranded by the free). Finally the dialect nullifies x itself
// (StepNilSym), so a subsequent dereference of x is an ordinary NULL
// dereference. The freed cell's node survives only while other
// (dangling) references keep it reachable; it then over-approximates a
// deallocated cell, which is sound — embeddings never require nodes to
// be populated.
func StepFreeSym(ctx *Context, g *rsg.Graph, x rsg.Sym, sels []rsg.Sym) []*rsg.Graph {
	if g.PvarTargetSym(x) == nil {
		return []*rsg.Graph{g}
	}
	cur := []*rsg.Graph{g}
	for _, sel := range sels {
		var next []*rsg.Graph
		for _, h := range cur {
			next = append(next, StepSelNilSym(ctx, h, x, sel)...)
		}
		cur = next
	}
	var out []*rsg.Graph
	for _, h := range cur {
		out = append(out, StepNilSym(ctx, h, x)...)
	}
	return out
}
