package rsg

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the package-level symbol table (DESIGN.md §10).
// Selector, pvar and type names are interned to dense small-int Sym IDs
// in three separate namespaces, so the hot representation (bitmask sets,
// flat edge lists) can work on integers while pretty-printing recovers
// the names through the reverse mapping.
//
// Tables are append-only and process-global, unlike the weak graph
// intern table: the IR of a program is finite and known after parsing,
// so the working set stabilizes immediately and lookups are lock-free
// reads of an atomic snapshot. Canonical emission never depends on Sym *values* — only on
// the name order recovered via the snapshot's rank array — so digests
// are independent of interning order and identical to the pre-Sym
// encoding byte for byte.

// Sym is an interned symbol ID within one namespace (selectors, pvars
// or type names). 0 is reserved for "no symbol"; valid Syms start at 1.
type Sym uint32

// symSnap is one immutable published state of a namespace. rank[s-1] is
// the position of name s in the lexicographic order of all interned
// names: for any fixed set of Syms the rank order equals the name
// order, and later interns never reorder existing symbols relative to
// each other.
type symSnap struct {
	names []string
	rank  []int32
	index map[string]Sym
}

type symSpace struct {
	mu   sync.Mutex
	snap atomic.Pointer[symSnap]
}

var (
	selTab  symSpace
	pvarTab symSpace
	typeTab symSpace
)

// intern returns the Sym for name, assigning the next free ID on first
// sight. The fast path is a lock-free map probe of the current snapshot.
func (t *symSpace) intern(name string) Sym {
	if snap := t.snap.Load(); snap != nil {
		if s, ok := snap.index[name]; ok {
			return s
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	var names []string
	if old != nil {
		if s, ok := old.index[name]; ok {
			return s
		}
		names = old.names
	}
	n := len(names)
	next := make([]string, n+1)
	copy(next, names)
	next[n] = name
	index := make(map[string]Sym, n+1)
	for i, nm := range next {
		index[nm] = Sym(i + 1)
	}
	order := make([]int, n+1)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return next[order[a]] < next[order[b]] })
	rank := make([]int32, n+1)
	for r, i := range order {
		rank[i] = int32(r)
	}
	t.snap.Store(&symSnap{names: next, rank: rank, index: index})
	return Sym(n + 1)
}

// lookup returns the Sym for name without interning, or 0.
func (t *symSpace) lookup(name string) Sym {
	if snap := t.snap.Load(); snap != nil {
		return snap.index[name]
	}
	return 0
}

// name returns the interned name of s ("" for Sym 0).
func (t *symSpace) name(s Sym) string {
	if s == 0 {
		return ""
	}
	return t.snap.Load().names[s-1]
}

// load returns the current snapshot (nil before the first intern).
func (t *symSpace) load() *symSnap { return t.snap.Load() }

// rankOf returns the lexicographic rank of s in the given snapshot.
func (snap *symSnap) rankOf(s Sym) int32 { return snap.rank[s-1] }

// sortByRank orders syms by their interned name (insertion sort: the
// slices here are property sets and selector runs, nearly always tiny).
func (snap *symSnap) sortByRank(syms []Sym) {
	for i := 1; i < len(syms); i++ {
		for j := i; j > 0 && snap.rank[syms[j]-1] < snap.rank[syms[j-1]-1]; j-- {
			syms[j], syms[j-1] = syms[j-1], syms[j]
		}
	}
}

// SelSym interns a selector name.
func SelSym(name string) Sym { return selTab.intern(name) }

// SelName returns the selector name of s.
func SelName(s Sym) string { return selTab.name(s) }

// PvarSym interns a pointer-variable name.
func PvarSym(name string) Sym { return pvarTab.intern(name) }

// PvarName returns the pvar name of s.
func PvarName(s Sym) string { return pvarTab.name(s) }

// TypeSym interns a struct type name.
func TypeSym(name string) Sym { return typeTab.intern(name) }

// TypeName returns the type name of s.
func TypeName(s Sym) string { return typeTab.name(s) }
