package bls381

import "testing"

// TestPreparedPairingAllocs is the BLS12-381 row of the zero-allocation
// contract (docs/PERFORMANCE.md §3): with the G2 line schedules
// prepared, a pairing stays off the heap, and the two-pairing equality
// check behind every signature verification allocates only the three
// argument slices of its product — nothing per Miller step.
func TestPreparedPairingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	initCtx()
	p, q := randG1(t), randG2(t)
	prep := prepareG2(&q)
	for _, op := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"pairPrepared", 0, func() { pairPrepared(&p, prep) }},
		{"samePairing", 3, func() {
			if !samePairing(&p, prep, &p, prep) {
				t.Fatal("trivially equal pairings differ")
			}
		}},
	} {
		if n := testing.AllocsPerRun(5, op.run); n > op.bound {
			t.Errorf("%s allocates %v times per call, bound is %v", op.name, n, op.bound)
		}
	}
}
