package rsrsg

// MergeDeltaBatch equivalence: admitting a visit's contributions in
// one batched round must land exactly where one single-contribution
// call per contribution lands — same membership, same net Delta — whenever no
// mid-batch force-join fires (the engine's common case). Under a tight
// MaxGraphs the force-join timing may differ, but the Delta replay
// contract must still hold.

import (
	"math/rand"
	"testing"

	"repro/internal/rsg"
)

func TestMergeDeltaBatchMatchesSequential(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			opts := Options{} // no widening bound: join order is identical
			base := FromGraphs(lvl, randomGraphs(r, 4), opts)
			seq, bat := New(), New()
			seq.MergeDeltaBatch(lvl, []*Set{base}, opts)
			bat.MergeDeltaBatch(lvl, []*Set{base}, opts)

			contribs := []*Set{
				FromGraphs(lvl, randomGraphs(r, 3), opts),
				nil, // nil and empty contributions must be skipped
				New(),
				FromGraphs(lvl, randomGraphs(r, 5), opts),
				base, // fully-absorbed repeat: dismissed O(1)
			}
			var seqDelta Delta
			for _, c := range contribs {
				seqDelta.Merge(seq.MergeDeltaBatch(lvl, []*Set{c}, opts))
			}
			batDelta := bat.MergeDeltaBatch(lvl, contribs, opts)

			sameMembership(t, membership(seq), bat, "batch vs sequential membership")
			if seqDelta.Changed != batDelta.Changed {
				t.Fatalf("lvl=%v seed=%d: Changed %v vs %v", lvl, seed, seqDelta.Changed, batDelta.Changed)
			}
			if len(seqDelta.Added) != len(batDelta.Added) || len(seqDelta.Removed) != len(batDelta.Removed) {
				t.Fatalf("lvl=%v seed=%d: delta shape %d+/%d- vs %d+/%d-", lvl, seed,
					len(seqDelta.Added), len(seqDelta.Removed), len(batDelta.Added), len(batDelta.Removed))
			}
			for i := range seqDelta.Added {
				if seqDelta.Added[i].Digest() != batDelta.Added[i].Digest() {
					t.Fatalf("lvl=%v seed=%d: added[%d] differs", lvl, seed, i)
				}
			}
			for i := range seqDelta.Removed {
				if seqDelta.Removed[i] != batDelta.Removed[i] {
					t.Fatalf("lvl=%v seed=%d: removed[%d] differs", lvl, seed, i)
				}
			}
		}
	}
}

func TestMergeDeltaBatchDeltaContractUnderWidening(t *testing.T) {
	// With MaxGraphs in play the batch may force-join at a different
	// point than per-contribution merging would; what must survive is
	// the Delta contract — replaying Added/Removed onto the pre-merge
	// membership reconstructs the post-merge membership exactly.
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			opts := Options{MaxGraphs: 3}
			s := New()
			s.MergeDeltaBatch(lvl, []*Set{FromGraphs(lvl, randomGraphs(r, 4), Options{})}, opts)
			for step := 0; step < 4; step++ {
				contribs := []*Set{
					FromGraphs(lvl, randomGraphs(r, 3), Options{}),
					FromGraphs(lvl, randomGraphs(r, 4), Options{}),
				}
				shadow := membership(s)
				d := s.MergeDeltaBatch(lvl, contribs, opts)
				applyDelta(shadow, d)
				sameMembership(t, shadow, s, "batched delta replay")
			}
		}
	}
}
