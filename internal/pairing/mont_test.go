package pairing

import (
	"math/big"
	"testing"

	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
)

// presetPrimes are the (p, q) of the 96-bit test curve and of
// params.Preset("Test160"), ("SS512") and ("SS1024"), embedded here
// because package params depends on pairing (importing it back would
// cycle). The differential tests must run at the real parameter sizes —
// SS512 is the paper-era size the optimised paths are for, and SS1024
// is the only 16-limb field; that row is skipped under -short.
var presetPrimes = []struct{ name, p, q string }{
	{"test96", "8f98a3660038a5b78edf9f53", "922af50d1a7f"},
	{"Test160", "cab69233645ff2ec9acee7e93cf76c09cab9c52f", "ccf7a522ae5901e73051"},
	{"SS512", "ad1b4018db0dcf94ca80575c821b9aefd402ad39db7a7d85fb0f8e71989659c2af8599a5b178cf01ddb933717119e7db4055e2b5e452590b660633ca3f0897b7", "eb390909eda970c020a00be910961312ae13722b"},
	{"SS1024", "ad9a6e357557eb15668567fb42048d4265160edec9ae4d134bd4ab8d3cb48e659bf1198c17a1ac94870d40a0b013c456c52a86d827ba47dcadcdb78b45baa254d8bdd82e9c5c47088070a72b0b31238218a74808edb04c9da0be604bdc70995cc1e0c0b3664622935cc3eb7bf830b69e1145326b4e562226b65da09c6e4d447b", "d4d5f7f4ac6206c04a504269bfeb5b2f179f428d4530c35947146d33"},
}

func forEachPreset(t *testing.T, fn func(t *testing.T, pr *Pairing)) {
	for _, row := range presetPrimes {
		row := row
		t.Run(row.name, func(t *testing.T) {
			p, q := mustInt(row.p), mustInt(row.q)
			if testing.Short() && p.BitLen() > 512 {
				t.Skip("16-limb row skipped under -short")
			}
			f, err := ff.NewField(p)
			if err != nil {
				t.Fatal(err)
			}
			c, err := curve.New(f, q, new(big.Int).Quo(new(big.Int).Add(p, big.NewInt(1)), q))
			if err != nil {
				t.Fatal(err)
			}
			pr, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, pr)
		})
	}
}

// randomSubgroupPoints derives n deterministic "random" subgroup points.
func randomSubgroupPoints(t *testing.T, pr *Pairing, n int, tag string) []curve.Point {
	t.Helper()
	pts := make([]curve.Point, n)
	for i := range pts {
		pts[i] = pr.C.HashToGroup("miller-diff-"+tag, []byte{byte(i)})
		if pts[i].IsInfinity() {
			t.Fatal("hash produced the identity")
		}
	}
	return pts
}

// TestBilinearityOptimisedPaths re-runs the bilinearity property
// ê(aP, bQ) = ê(P, Q)^{ab} on the projective and prepared paths.
func TestBilinearityOptimisedPaths(t *testing.T) {
	forEachPreset(t, func(t *testing.T, pr *Pairing) {
		p := pr.C.HashToGroup("bilin", []byte("P"))
		q := pr.C.HashToGroup("bilin", []byte("Q"))
		base := pr.Pair(p, q)
		for _, ab := range [][2]int64{{2, 3}, {7, 11}, {941, 353}} {
			a, b := big.NewInt(ab[0]), big.NewInt(ab[1])
			aP, bQ := pr.C.ScalarMult(a, p), pr.C.ScalarMult(b, q)
			want := pr.GTExpUnitary(base, new(big.Int).Mul(a, b))
			if !pr.GTEqual(pr.Pair(aP, bQ), want) {
				t.Fatalf("projective: ê(%dP, %dQ) != ê(P,Q)^%d", ab[0], ab[1], ab[0]*ab[1])
			}
			if !pr.GTEqual(pr.PairPrepared(pr.Precompute(aP), bQ), want) {
				t.Fatalf("prepared: ê(%dP, %dQ) != ê(P,Q)^%d", ab[0], ab[1], ab[0]*ab[1])
			}
		}
	})
}
