package rsg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSelSetBasics(t *testing.T) {
	s := NewSelSet("a", "b")
	if !s.Has("a") || !s.Has("b") || s.Has("c") {
		t.Error("membership wrong")
	}
	s.Add("c")
	s.Remove("a")
	if s.Has("a") || !s.Has("c") {
		t.Error("add/remove wrong")
	}
	if s.String() != "{b,c}" {
		t.Errorf("String = %s", s)
	}
}

func TestSelSetAlgebra(t *testing.T) {
	a := NewSelSet("x", "y")
	b := NewSelSet("y", "z")
	if u := a.Union(b); !u.Equal(NewSelSet("x", "y", "z")) {
		t.Errorf("union = %s", u)
	}
	if i := a.Intersect(b); !i.Equal(NewSelSet("y")) {
		t.Errorf("intersect = %s", i)
	}
	if m := a.Minus(b); !m.Equal(NewSelSet("x")) {
		t.Errorf("minus = %s", m)
	}
	// Clone independence.
	c := a.Clone()
	c.Add("w")
	if a.Has("w") {
		t.Error("clone aliases the original")
	}
}

func TestSelSetAlgebraProperties(t *testing.T) {
	// Property-based checks of the set algebra used by MERGE_NODES.
	gen := func(r *rand.Rand) SelSet {
		s := NewSelSet()
		for _, sel := range []string{"a", "b", "c", "d"} {
			if r.Intn(2) == 0 {
				s.Add(sel)
			}
		}
		return s
	}
	cfg := &quick.Config{MaxCount: 200}

	// Union is commutative; intersection distributes over union.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		left := a.Intersect(b.Union(c))
		right := a.Intersect(b).Union(a.Intersect(c))
		return left.Equal(right)
	}, cfg); err != nil {
		t.Error(err)
	}

	// (A ∪ B) \ (A ∩ B) == symmetric difference parts.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		sym := a.Union(b).Minus(a.Intersect(b))
		want := a.Minus(b).Union(b.Minus(a))
		return sym.Equal(want)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestPvarSetBasics(t *testing.T) {
	s := NewPvarSet("p", "q")
	if !s.Equal(NewPvarSet("q", "p")) {
		t.Error("order must not matter")
	}
	if s.Equal(NewPvarSet("p")) {
		t.Error("different sizes must differ")
	}
	if s.String() != "{p,q}" {
		t.Errorf("String = %s", s)
	}
}

func TestCycleSetBasics(t *testing.T) {
	s := NewCycleSet(CyclePair{Out: "nxt", In: "prv"})
	if !s.Has(CyclePair{Out: "nxt", In: "prv"}) {
		t.Error("missing pair")
	}
	if s.Has(CyclePair{Out: "prv", In: "nxt"}) {
		t.Error("pairs are ordered")
	}
	s.Add(CyclePair{Out: "a", In: "b"})
	if s.String() != "{<a,b>,<nxt,prv>}" {
		t.Errorf("String = %s", s)
	}
	c := s.Clone()
	c.Remove(CyclePair{Out: "a", In: "b"})
	if !s.Has(CyclePair{Out: "a", In: "b"}) {
		t.Error("clone aliases the original")
	}
}

func TestSPathBasics(t *testing.T) {
	zero := NewSPath("p", "")
	one := NewSPath("p", "nxt")
	if zero.Len() != 0 || one.Len() != 1 {
		t.Error("lengths wrong")
	}
	s := NewSPathSet(NewSPath("q", "prv"), one, zero)
	if s.Len() != 3 || !s.Has(zero) || !s.Has(one) {
		t.Errorf("set = %s", s)
	}
	if !s.Intersects(NewSPathSet(one)) {
		t.Error("Intersects false negative")
	}
	if s.Intersects(NewSPathSet(NewSPath("z", ""))) {
		t.Error("Intersects false positive")
	}
	if s.String() != "{<p,.>,<p,nxt>,<q,prv>}" {
		t.Errorf("String = %s", s)
	}
}

func TestCSPathModes(t *testing.T) {
	// Same zero paths, disjoint one paths.
	a := NewSPathSet(NewSPath("p", "nxt"))
	b := NewSPathSet(NewSPath("q", "prv"))
	if !CSPath(a, b, 0) {
		t.Error("C_SPATH0 only compares zero-length paths")
	}
	if CSPath(a, b, 1) {
		t.Error("C_SPATH1 must reject disjoint one-length path sets")
	}
	// Shared one path.
	c := NewSPathSet(NewSPath("p", "nxt"), NewSPath("r", "s"))
	if !CSPath(a, c, 1) {
		t.Error("C_SPATH1 must accept sets sharing a one-length path")
	}
	// Both empty one-length sets.
	e1, e2 := NewSPathSet(), NewSPathSet()
	if !CSPath(e1, e2, 1) {
		t.Error("C_SPATH1 must accept two empty sets")
	}
	// Different zero paths always incompatible.
	z1 := NewSPathSet(NewSPath("p", ""))
	z2 := NewSPathSet(NewSPath("q", ""))
	if CSPath(z1, z2, 0) || CSPath(z1, z2, 1) {
		t.Error("different zero-length paths must be incompatible")
	}
}
