package pairing

import (
	"crypto/rand"
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
			c, err := curve.New(f, q, new(big.Int).Quo(new(big.Int).Add(p, big1), q))
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

// TestPairBackendsAgree is the headline differential test: the
// production pairing (inversion-free Jacobian Miller loop and Frobenius
// final exponentiation, on limbs) must produce identical values to the
// affine math/big oracle on random points at every table size, and on
// an identity argument.
func TestPairBackendsAgree(t *testing.T) {
	forEachPreset(t, func(t *testing.T, pr *Pairing) {
		ps := append(randomSubgroupPoints(t, pr, 4, "P"), curve.Infinity())
		qs := randomSubgroupPoints(t, pr, 5, "Q")
		for i := range ps {
			if got, want := pr.Pair(ps[i], qs[i]), pr.PairAffine(ps[i], qs[i]); !pr.E2.Equal(got, want) {
				t.Fatalf("Pair != oracle for point pair %d: %v vs %v", i, got, want)
			}
		}
	})
}

// TestPairPreparedBackendsAgree checks the fixed-argument path, whose
// Precompute walks the limb Miller state and batch-normalises the
// lines: both the final pairing value and — because prepared lines are
// normalised to the same affine (λ, μ) form — the raw Miller value must
// match the oracle bit for bit. The identity is a legal argument on
// either side; the closing addition step of every schedule is a vertical
// chord V + (−V), so vertical steps are always on the path.
func TestPairPreparedBackendsAgree(t *testing.T) {
	forEachPreset(t, func(t *testing.T, pr *Pairing) {
		ps := append(randomSubgroupPoints(t, pr, 4, "P"), curve.Infinity())
		qs := append(randomSubgroupPoints(t, pr, 3, "Q"), curve.Infinity(), ps[0])
		for i := range ps {
			prep := pr.Precompute(ps[i])
			if prep.IsInfinity() != ps[i].IsInfinity() {
				t.Fatalf("Precompute(point %d).IsInfinity() = %v", i, prep.IsInfinity())
			}
			if got, want := pr.PairPrepared(prep, qs[i]), pr.PairAffine(ps[i], qs[i]); !pr.E2.Equal(got, want) {
				t.Fatalf("PairPrepared != oracle for point pair %d", i)
			}
			if prep.IsInfinity() || qs[i].IsInfinity() {
				continue
			}
			if !prep.steps[len(prep.steps)-1].add.vertical {
				t.Fatal("closing addition step must be vertical")
			}
			a := pr.m.GetArena()
			raw := pr.e2m.FromMont(pr.millerPreparedMontIn(prep, qs[i], a))
			a.Release()
			if !pr.E2.Equal(raw, pr.MillerAffine(ps[i], qs[i])) {
				t.Fatalf("prepared Miller value != MillerAffine for point pair %d", i)
			}
		}
	})
}

// TestFinalExpFrobeniusMatchesExponentiation is the acceptance check
// that the Frobenius final exponentiation — conj(f)·f⁻¹ for the (p−1)
// factor, then the unitary signed-window ladder for the cofactor —
// equals the plain exponentiation f^((p²−1)/q) of the oracle.
func TestFinalExpFrobeniusMatchesExponentiation(t *testing.T) {
	pr := testPairing(t)
	e2 := pr.E2
	for i := 0; i < 10; i++ {
		p, err := pr.C.RandomSubgroupPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		f := pr.MillerAffine(p, gen(t, pr, byte(i)))
		if got, naive := pr.FinalExp(f), e2.ExpBig(f, pr.finalExp); !e2.Equal(got, naive) {
			t.Fatalf("FinalExp != f^((p²−1)/q): %v vs %v", got, naive)
		}
	}
	// Degenerate inputs: zero and one.
	if !e2.IsOne(pr.FinalExp(e2.One())) {
		t.Fatal("FinalExp(1) != 1")
	}
	if !e2.IsOne(pr.FinalExp(GT{A: new(big.Int), B: new(big.Int)})) {
		t.Fatal("FinalExp(0) must degrade to 1")
	}
}

// TestPairProductBackendAgree checks the (parallel) multi-pair product,
// one factor of it trivial, against the product of oracle pairings. The
// product is repeated to shake out scheduling nondeterminism in the
// parallel merge (also exercised with -race by `make race`).
func TestPairProductBackendAgree(t *testing.T) {
	forEachPreset(t, func(t *testing.T, pr *Pairing) {
		ps := append(randomSubgroupPoints(t, pr, 4, "P"), curve.Infinity())
		qs := randomSubgroupPoints(t, pr, 5, "Q")
		pairs := make([]PointPair, len(ps))
		want := pr.E2.One()
		for i := range ps {
			pairs[i] = PointPair{P: ps[i], Q: qs[i]}
			want = pr.E2.Mul(want, pr.PairAffine(ps[i], qs[i]))
		}
		for run := 0; run < 5; run++ {
			if got := pr.PairProduct(pairs); !pr.E2.Equal(got, want) {
				t.Fatalf("run %d: PairProduct != oracle product: %v vs %v", run, got, want)
			}
		}
	})
}

// TestSamePairingPreparedMontAgree checks the prepared equality test
// (two table-driven Miller loops sharing one final exponentiation)
// against the oracle's verdict and the unprepared SamePairing, on
// matching and non-matching inputs and on every degenerate arm: an
// identity on one side makes that side 1, which an attacker-supplied
// signature or key can arrange.
func TestSamePairingPreparedMontAgree(t *testing.T) {
	forEachPreset(t, func(t *testing.T, pr *Pairing) {
		g := randomSubgroupPoints(t, pr, 1, "P")[0]
		q := randomSubgroupPoints(t, pr, 1, "Q")[0]
		k, err := pr.C.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		kg, kq := pr.C.ScalarMultAffine(k, g), pr.C.ScalarMultAffine(k, q)
		inf := curve.Infinity()
		for _, tc := range []struct {
			name           string
			p1, q1, p2, q2 curve.Point
			want           bool
		}{
			{"equal", g, kq, kg, q, true},
			{"distinct", g, q, kg, q, false},
			{"both sides trivial", inf, q, g, inf, true},
			{"1 vs ê(P,P)", inf, g, g, g, false},
			{"ê(P,Q) vs 1", g, q, kg, inf, false},
		} {
			if pr.E2.Equal(pr.PairAffine(tc.p1, tc.q1), pr.PairAffine(tc.p2, tc.q2)) != tc.want {
				t.Fatalf("%s: oracle verdict is not %v", tc.name, tc.want)
			}
			if got := pr.SamePairingPrepared(pr.Precompute(tc.p1), tc.q1, pr.Precompute(tc.p2), tc.q2); got != tc.want {
				t.Fatalf("%s: SamePairingPrepared = %v", tc.name, got)
			}
			if got := pr.SamePairing(tc.p1, tc.q1, tc.p2, tc.q2); got != tc.want {
				t.Fatalf("%s: SamePairing = %v", tc.name, got)
			}
		}
	})
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
			want := pr.E2.Exp(base, new(big.Int).Mul(a, b))
			if !pr.E2.Equal(pr.Pair(aP, bQ), want) {
				t.Fatalf("projective: ê(%dP, %dQ) != ê(P,Q)^%d", ab[0], ab[1], ab[0]*ab[1])
			}
			if !pr.E2.Equal(pr.PairPrepared(pr.Precompute(aP), bQ), want) {
				t.Fatalf("prepared: ê(%dP, %dQ) != ê(P,Q)^%d", ab[0], ab[1], ab[0]*ab[1])
			}
		}
	})
}
