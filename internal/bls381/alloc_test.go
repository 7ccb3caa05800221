package bls381

import (
	"testing"

	"timedrelease/internal/backend"
)

// TestPairingAllocs is the BLS12-381 row of the zero-allocation contract
// (docs/PERFORMANCE.md §3): the base-field inverse runs on the stack,
// the Miller loop makes and applies each line in place, so a pairing
// stays off the heap, and the two-pairing
// equality checks — samePairing and the prepared key's pair-check behind
// every signature verification — allocate at most their argument
// slices, nothing per Miller step.
func TestPairingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	be := New()
	p, q := randG1(t), randG2(t)
	g1, g2 := be.Generator(backend.G1), be.Generator(backend.G2)
	pk := be.PrepareKey(g1, g1, g2)
	var inv fe
	for _, op := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"pair", 0, func() { pair(&p, &q) }},
		{"fe.inv", 0, func() { inv.inv(&p.x) }},
		{"samePairing", 3, func() {
			if !samePairing(&p, &q, &p, &q) {
				t.Fatal("trivially equal pairings differ")
			}
		}},
		{"PairCheck", 3, func() {
			if !pk.PairCheck(g2, g2) {
				t.Fatal("ê(G, G2) = ê(G, G2) rejected")
			}
		}},
	} {
		if n := testing.AllocsPerRun(5, op.run); n > op.bound {
			t.Errorf("%s allocates %v times per call, bound is %v", op.name, n, op.bound)
		}
	}
}
