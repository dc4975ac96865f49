package main

import (
	"time"

	"repro/internal/absem"
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// replayGraphs caps the in-state graphs replayed per statement, to keep
// the traced run's replay to a few seconds.
const replayGraphs = 16

// replay re-applies every statement of a converged result through the
// public per-graph transfer functions and times the rsg kernels on the
// same graphs, one span per call, so the trace attributes table1's time
// to the Fig. 2 pipeline stages. It runs over converged in-states rather
// than the engine's deltas: its figures are shares of replay time, not
// engine self time.
func replay(b *bench, res *analysis.Result) {
	start := time.Now()
	tr := b.tr
	prog := res.Program
	lvl := res.Level
	opts := rsrsg.Options{MaxGraphs: 64}
	for _, s := range prog.Stmts {
		if !replayable(s.Op) || len(s.Preds) == 0 {
			continue
		}
		in := inGraphs(res, s)
		if len(in) == 0 {
			continue
		}
		induction := rsg.NewPvarSet()
		for pv := range prog.InductionFor(s.ID) {
			induction.Add(pv)
		}
		ctx := &absem.Context{Level: lvl, Opts: opts, InLoop: prog.InLoop(s.ID), Induction: induction}
		root := tr.begin("replay.stmt", 0)
		var outs []*rsg.Graph
		for _, g := range in {
			id := tr.begin("absem.Step", root)
			o := step(ctx, s, g)
			tr.end(id)
			outs = append(outs, o...)
			replayKernels(tr, root, lvl, s, g)
		}
		id := tr.begin("rsrsg.Reduce", root)
		reduced := rsrsg.FromGraphs(lvl, outs, opts)
		tr.end(id)
		for i := 1; i < len(outs); i++ {
			if g1, g2 := outs[i-1], outs[i]; rsg.Compatible(lvl, g1, g2) {
				id := tr.begin("rsg.Join", root)
				rsg.Join(lvl, g1, g2)
				tr.end(id)
			}
		}
		tr.end(root)
		b.ratio("absem.fanout", float64(len(outs)), float64(len(in)))
		b.ratio("rsrsg.reduce_ratio", float64(reduced.Len()), float64(len(outs)))
	}
	b.layerSet["replay.total_ms"] += float64(time.Since(start)) / float64(time.Millisecond)
}

// replayKernels times DIVIDE, PRUNE, materialization, COMPRESS and
// freeze+digest on one in-state graph, on private clones.
func replayKernels(tr *tracer, root int, lvl rsg.Level, s *ir.Stmt, g *rsg.Graph) {
	c := g.Clone()
	id := tr.begin("rsg.FreezeDig", root)
	c.Freeze().Digest()
	tr.end(id)

	c = g.Clone()
	id = tr.begin("rsg.Prune", root)
	rsg.Prune(c)
	tr.end(id)

	x, sel, deref := derefOf(s)
	if !deref || g.PvarTargetSym(x) == nil {
		c = g.Clone()
		id = tr.begin("rsg.Compress", root)
		rsg.Compress(c, lvl)
		tr.end(id)
		return
	}
	id = tr.begin("rsg.Divide", root)
	divs := rsg.DivideSym(g, x, sel)
	tr.end(id)
	for _, d := range divs {
		c := d.G.Clone()
		if d.Target >= 0 {
			id := tr.begin("rsg.Material", root)
			rsg.MaterializeSym(c, c.PvarTargetSym(x).ID, sel)
			tr.end(id)
		}
		id := tr.begin("rsg.Compress", root)
		rsg.Compress(c, lvl)
		tr.end(id)
	}
}

// derefOf returns the pvar and selector a statement dereferences.
func derefOf(s *ir.Stmt) (x, sel rsg.Sym, ok bool) {
	switch s.Op {
	case ir.OpLoad:
		return s.YSym, s.SelSym, true
	case ir.OpSelNil, ir.OpSelCopy:
		return s.XSym, s.SelSym, true
	}
	return 0, 0, false
}

func replayable(op ir.Op) bool {
	switch op {
	case ir.OpNil, ir.OpMalloc, ir.OpCopy, ir.OpSelNil, ir.OpSelCopy, ir.OpLoad, ir.OpFree:
		return true
	}
	return false
}

// step applies a statement's per-graph abstract semantics.
func step(ctx *absem.Context, s *ir.Stmt, g *rsg.Graph) []*rsg.Graph {
	switch s.Op {
	case ir.OpNil:
		return absem.StepNilSym(ctx, g, s.XSym)
	case ir.OpMalloc:
		return absem.StepMallocSym(ctx, g, s.XSym, s.TypeSym)
	case ir.OpCopy:
		return absem.StepCopySym(ctx, g, s.XSym, s.YSym)
	case ir.OpSelNil:
		return absem.StepSelNilSym(ctx, g, s.XSym, s.SelSym)
	case ir.OpSelCopy:
		return absem.StepSelCopySym(ctx, g, s.XSym, s.SelSym, s.YSym)
	case ir.OpLoad:
		return absem.StepLoadSym(ctx, g, s.XSym, s.YSym, s.SelSym)
	case ir.OpFree:
		return absem.StepFreeSym(ctx, g, s.XSym, s.SelSyms)
	}
	return []*rsg.Graph{g}
}

// inGraphs is the statement's in-state: the distinct graphs of its
// predecessors' out-states, capped at replayGraphs.
func inGraphs(res *analysis.Result, s *ir.Stmt) []*rsg.Graph {
	seen := map[rsg.Digest]bool{}
	var out []*rsg.Graph
	for _, p := range s.Preds {
		set := res.Out[p]
		if set == nil {
			continue
		}
		for _, g := range set.Graphs() {
			if d := g.Digest(); !seen[d] && len(out) < replayGraphs {
				seen[d] = true
				out = append(out, g)
			}
		}
	}
	return out
}
