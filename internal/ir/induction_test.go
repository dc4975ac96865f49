package ir

import (
	"testing"
)

const inductionPrologue = `
struct node { int v; struct node *nxt; struct node *prv; };
`

func TestDirectTraversalPvar(t *testing.T) {
	p := lower(t, inductionPrologue+`
void main(void) {
    struct node *p;
    p = malloc(sizeof(struct node));
    while (c) {
        p = p->nxt;
    }
}`)
	if len(p.Loops) != 1 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	if _, ok := p.Loops[0].Induction["p"]; !ok {
		t.Errorf("p = p->nxt makes p an induction pvar: %v", p.Loops[0].Induction)
	}
}

func TestTraversalThroughTemp(t *testing.T) {
	// q = p->nxt; p = q — a copy chain with one load: p advances.
	p := lower(t, inductionPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (c) {
        q = p->nxt;
        p = q;
    }
}`)
	ind := p.Loops[0].Induction
	if _, ok := ind["p"]; !ok {
		t.Errorf("p advances through q; induction = %v", ind)
	}
	if _, ok := ind["q"]; !ok {
		t.Errorf("q is on the advancing cycle too; induction = %v", ind)
	}
}

func TestMallocAdvanceIsNotInduction(t *testing.T) {
	// The list-building pattern p = q with q = malloc: no load cycle.
	p := lower(t, inductionPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (c) {
        q = malloc(sizeof(struct node));
        p->nxt = q;
        p = q;
    }
}`)
	ind := p.Loops[0].Induction
	if len(ind) != 0 {
		t.Errorf("no pvar traverses existing structure; induction = %v", ind)
	}
}

func TestPerLoopSets(t *testing.T) {
	p := lower(t, inductionPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (a) {
        q = malloc(sizeof(struct node));
        p->nxt = q;
        p = q;
    }
    q = p;
    while (b) {
        q = q->prv;
    }
}`)
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	if len(p.Loops[0].Induction) != 0 {
		t.Errorf("build loop induction = %v", p.Loops[0].Induction)
	}
	if _, ok := p.Loops[1].Induction["q"]; !ok {
		t.Errorf("traversal loop induction = %v", p.Loops[1].Induction)
	}
}

func TestNestedLoopInduction(t *testing.T) {
	p := lower(t, inductionPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (a) {
        q = p;
        while (b) {
            q = q->nxt;
        }
        p = p->nxt;
    }
}`)
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	outer, inner := p.Loops[0], p.Loops[1]
	if _, ok := outer.Induction["p"]; !ok {
		t.Errorf("outer induction = %v", outer.Induction)
	}
	if _, ok := inner.Induction["q"]; !ok {
		t.Errorf("inner induction = %v", inner.Induction)
	}
	// q's advancing statement is only in the inner loop, but the outer
	// loop body contains it too — q advances per outer iteration as
	// well, so it appears in both sets.
	if _, ok := outer.Induction["q"]; !ok {
		t.Errorf("outer should also see q advancing: %v", outer.Induction)
	}
	// p does not advance within the inner loop.
	if _, ok := inner.Induction["p"]; ok {
		t.Errorf("inner must not contain p: %v", inner.Induction)
	}
}

// TestStmtInductionIsEnclosingUnion checks the per-statement stamp:
// each statement carries the union of its enclosing loops' induction
// pvars, and statements outside every loop carry none.
func TestStmtInductionIsEnclosingUnion(t *testing.T) {
	p := lower(t, inductionPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (a) {
        q = p;
        while (b) {
            q = q->nxt;
        }
        p = p->nxt;
    }
}`)
	for _, s := range p.Stmts {
		want := p.InductionFor(s.ID)
		if s.Induction.Len() != len(want) {
			t.Errorf("stmt %d (%s): Induction = %v, want %v", s.ID, s, s.Induction, want)
			continue
		}
		for pv := range want {
			if !s.Induction.Has(pv) {
				t.Errorf("stmt %d (%s): Induction = %v lacks %s", s.ID, s, s.Induction, pv)
			}
		}
		if !p.InLoop(s.ID) && !s.Induction.Empty() {
			t.Errorf("stmt %d (%s) is outside every loop but has Induction = %v", s.ID, s, s.Induction)
		}
	}
	inner := p.Loops[1]
	for id := range inner.Body {
		if s := p.Stmt(id); !s.Induction.Has("p") || !s.Induction.Has("q") {
			t.Errorf("inner stmt %d (%s): Induction = %v, want the outer loop's p and q", id, s, s.Induction)
		}
	}
}
