package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/rsg"
)

// TestGraphCacheIsReadAllocate: writing graphs leaves the decode cache
// empty; reading one back decodes, verifies and caches it once, and
// interning makes the result the caller's own live instance.
func TestGraphCacheIsReadAllocate(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache.rsgstore"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(3))
	live := make([]*rsg.Graph, 6)
	for i := range live {
		live[i] = rsg.Intern(testGraph(rng))
		if err := s.PutGraph(live[i]); err != nil {
			t.Fatalf("put graph: %v", err)
		}
	}
	if cached, decodes := s.CacheStats(); cached != 0 || decodes != 0 {
		t.Fatalf("after puts: %d cached, %d decodes; want 0, 0", cached, decodes)
	}

	for pass := 0; pass < 2; pass++ {
		for i, g := range live {
			got, ok := s.Graph(g.Digest())
			if !ok || got != g {
				t.Fatalf("pass %d, graph %d: got %p (ok=%v), want the live instance %p", pass, i, got, ok, g)
			}
		}
		// The first pass decodes every graph; the second is served
		// from the cache.
		if cached, decodes := s.CacheStats(); cached != len(live) || decodes != int64(len(live)) {
			t.Fatalf("pass %d: %d cached, %d decodes; want %d, %d", pass, cached, decodes, len(live), len(live))
		}
	}
}

// TestGraphCorruptSpanIsMiss: a graph whose bytes were damaged after
// the log was indexed reads as a miss and is not cached.
func TestGraphCorruptSpanIsMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.rsgstore")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := testGraph(rand.New(rand.NewSource(5)))
	if err := s.PutGraph(g); err != nil {
		t.Fatalf("put graph: %v", err)
	}
	d := g.Digest()

	s.mu.Lock()
	sp := s.graphs[d]
	s.mu.Unlock()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, sp.len)
	for i := range junk {
		junk[i] = 0xA5
	}
	_, err = f.WriteAt(junk, sp.off)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	if g, ok := s.Graph(d); ok {
		t.Fatalf("corrupt span served a graph with %d nodes", g.NumNodes())
	}
	if cached, decodes := s.CacheStats(); cached != 0 || decodes != 0 {
		t.Fatalf("corrupt span: %d cached, %d decodes; want 0, 0", cached, decodes)
	}
}

// TestConcurrentPutGraphSameDigest races PutGraph and Graph on one
// digest, half the writers holding the interned instance and half a
// private frozen copy. Run under -race via `make test-race`.
func TestConcurrentPutGraphSameDigest(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache.rsgstore"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := testGraph(rand.New(rand.NewSource(17))).Digest()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := testGraph(rand.New(rand.NewSource(17)))
			if w%2 == 0 {
				g = rsg.Intern(g)
			}
			for i := 0; i < 50; i++ {
				if err := s.PutGraph(g); err != nil {
					t.Errorf("put graph: %v", err)
					return
				}
				if got, ok := s.Graph(d); !ok || got.Digest() != d {
					t.Errorf("read after put: ok=%v", ok)
					return
				}
				s.CacheStats()
			}
		}(w)
	}
	wg.Wait()
	if ng, _, _ := s.Counts(); ng != 1 {
		t.Fatalf("%d graph records for one digest", ng)
	}
	if cached, _ := s.CacheStats(); cached != 1 {
		t.Fatalf("%d cached graphs for one digest", cached)
	}
}
