package rsg

// Division is one result of DIVIDE: a pruned graph in which the node
// referenced by the dividing pvar has a single destination through the
// dividing selector. Target is that destination, or -1 for the branch
// in which the selector is NULL.
type Division struct {
	G      *Graph
	Target NodeID
}

// DivideSym implements the paper's DIVIDE(rsg, x, sel) operation
// (Sect. 4.1): the graph is split into one graph per possible
// destination of x->sel, so that each resulting graph carries a single
// <n, sel, n_i> link out of x's node. Each result is pruned; infeasible
// branches are dropped.
//
// Beyond the paper's formula, a NULL branch (all <n, sel, *> links
// removed) is produced when the selector is not definite in x's node's
// SELOUT set: the summarized configurations may include ones where
// x->sel is NULL, and a sound abstract semantics must account for them.
//
// The pvar x must reference a node; callers handle the x == NULL case
// (a would-be NULL dereference) before dividing. The pvar and selector
// are interned symbols.
func DivideSym(g *Graph, x, sel Sym) []Division {
	n := g.PvarTargetSym(x)
	if n == nil {
		return nil
	}
	targets := g.TargetsSym(n.ID, sel)
	var out []Division

	for _, t := range targets {
		gi := g.Clone()
		for _, other := range targets {
			if other != t {
				gi.RemoveLinkSym(n.ID, sel, other)
			}
		}
		// In this branch the reference definitely exists and has this
		// single destination.
		src := gi.Node(n.ID)
		src.MarkDefiniteOutSym(sel)
		dst := gi.Node(t)
		if dst.Singleton {
			dst.MarkDefiniteInSym(sel)
		} else {
			dst.MarkPossibleInSym(sel)
		}
		if Prune(gi) {
			out = append(out, Division{G: gi, Target: t})
		}
	}

	if !n.SelOut.HasSym(sel) {
		// NULL branch: x->sel may be NULL in some covered configuration.
		gi := g.Clone()
		for _, t := range targets {
			gi.RemoveLinkSym(n.ID, sel, t)
		}
		src := gi.Node(n.ID)
		src.ClearOutSym(sel)
		for _, t := range targets {
			if dst := gi.Node(t); dst != nil && dst.Singleton {
				gi.RefreshSingleton(t)
			}
		}
		if Prune(gi) {
			out = append(out, Division{G: gi, Target: -1})
		}
	}
	return out
}
