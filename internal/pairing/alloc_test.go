package pairing

import "testing"

// pairAllocBound is what Pair and PairPrepared allocated per call when
// the allocation columns of the pairing report were last recorded (the
// returned Fp2Elem and its conversion out of the arena, nothing per
// Miller step). AllocsPerRun reads 4 at every preset; the fifth is room
// for one pool eviction by a GC cycle mid-measurement.
const pairAllocBound = 5

// TestPairAllocsFlatInLoopLength is the pairing row of the
// zero-allocation contract (docs/PERFORMANCE.md §3): one pooled arena
// per call, so the count stays under the bound at every preset — the
// Miller loop runs over |q| = 48 to 224 bits across these rows and the
// field over 2 to 16 limbs.
func TestPairAllocsFlatInLoopLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	forEachPreset(t, func(t *testing.T, pr *Pairing) {
		pts := randomSubgroupPoints(t, pr, 2, "alloc")
		p, q := pts[0], pts[1]
		prep := pr.Precompute(p)
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"Pair", func() { pr.Pair(p, q) }},
			{"PairPrepared", func() { pr.PairPrepared(prep, q) }},
		} {
			op.run() // warm the arena pool
			if n := testing.AllocsPerRun(5, op.run); n > pairAllocBound {
				t.Errorf("%s allocates %v times per call, bound is %d", op.name, n, pairAllocBound)
			}
		}
	})
}
