package pairing_test

import (
	"bytes"
	"crypto/rand"
	"testing"

	"timedrelease/internal/curve"
	"timedrelease/internal/pairing"
	"timedrelease/internal/ref"
)

// oracle builds internal/ref's F_{p²} over pr's field.
func oracle(t *testing.T, pr *pairing.Pairing) *ref.Fp2 {
	t.Helper()
	e2, err := ref.NewFp2(pr.C.F)
	if err != nil {
		t.Fatal(err)
	}
	return e2
}

// same reports whether the limb value got is the oracle's want, by
// encoding: GTBytes must be the oracle's Field.Bytes(A) ‖ Field.Bytes(B)
// for the same element, which is what keeps every H2 mask unchanged.
func same(pr *pairing.Pairing, e2 *ref.Fp2, got pairing.GT, want ref.Fp2Elem) bool {
	return bytes.Equal(pr.GTBytes(got), e2.Bytes(want))
}

// TestPairBackendsAgree is the headline differential test: the
// production pairing (inversion-free Jacobian Miller loop and Frobenius
// final exponentiation, on limbs) must produce identical values to the
// affine math/big oracle on random points at every table size, and on
// an identity argument.
func TestPairBackendsAgree(t *testing.T) {
	pairing.ForEachPreset(t, func(t *testing.T, pr *pairing.Pairing) {
		e2 := oracle(t, pr)
		ps := append(pairing.RandomSubgroupPoints(t, pr, 4, "P"), curve.Infinity())
		qs := pairing.RandomSubgroupPoints(t, pr, 5, "Q")
		for i := range ps {
			if got, want := pr.Pair(ps[i], qs[i]), ref.PairAffine(pr.C, ps[i], qs[i]); !same(pr, e2, got, want) {
				t.Fatalf("Pair != oracle for point pair %d: %v vs %v", i, e2.FromLimbs(got), want)
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
	pairing.ForEachPreset(t, func(t *testing.T, pr *pairing.Pairing) {
		e2 := oracle(t, pr)
		ps := append(pairing.RandomSubgroupPoints(t, pr, 4, "P"), curve.Infinity())
		qs := append(pairing.RandomSubgroupPoints(t, pr, 3, "Q"), curve.Infinity(), ps[0])
		for i := range ps {
			prep := pr.Precompute(ps[i])
			if prep.IsInfinity() != ps[i].IsInfinity() {
				t.Fatalf("Precompute(point %d).IsInfinity() = %v", i, prep.IsInfinity())
			}
			if got, want := pr.PairPrepared(prep, qs[i]), ref.PairAffine(pr.C, ps[i], qs[i]); !same(pr, e2, got, want) {
				t.Fatalf("PairPrepared != oracle for point pair %d", i)
			}
			if prep.IsInfinity() || qs[i].IsInfinity() {
				continue
			}
			if !prep.ClosesVertical() {
				t.Fatal("closing addition step must be vertical")
			}
			if !same(pr, e2, pr.MillerPrepared(prep, qs[i]), ref.MillerAffine(pr.C, ps[i], qs[i])) {
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
	pr := pairing.SmallPairing(t)
	e2 := oracle(t, pr)
	for i := 0; i < 10; i++ {
		p, err := pr.C.RandomSubgroupPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		f := ref.MillerAffine(pr.C, p, pairing.Gen(t, pr, byte(i)))
		if got, naive := pr.FinalExp(e2.Limbs(f)), e2.ExpBig(f, ref.FinalExponent(pr.C)); !same(pr, e2, got, naive) {
			t.Fatalf("FinalExp != f^((p²−1)/q): %v vs %v", e2.FromLimbs(got), naive)
		}
	}
	// Degenerate inputs: zero and one.
	if !pr.GTIsOne(pr.FinalExp(pr.GTOne())) {
		t.Fatal("FinalExp(1) != 1")
	}
	if !pr.GTIsOne(pr.FinalExp(e2.Limbs(e2.Zero()))) {
		t.Fatal("FinalExp(0) must degrade to 1")
	}
}

// TestPairProductBackendAgree checks the (parallel) multi-pair product,
// one factor of it trivial, against the product of oracle pairings. The
// product is repeated to shake out scheduling nondeterminism in the
// parallel merge (also exercised with -race by `make race`).
func TestPairProductBackendAgree(t *testing.T) {
	pairing.ForEachPreset(t, func(t *testing.T, pr *pairing.Pairing) {
		e2 := oracle(t, pr)
		ps := append(pairing.RandomSubgroupPoints(t, pr, 4, "P"), curve.Infinity())
		qs := pairing.RandomSubgroupPoints(t, pr, 5, "Q")
		pairs := make([]pairing.PointPair, len(ps))
		want := e2.One()
		for i := range ps {
			pairs[i] = pairing.PointPair{P: ps[i], Q: qs[i]}
			want = e2.Mul(want, ref.PairAffine(pr.C, ps[i], qs[i]))
		}
		for run := 0; run < 5; run++ {
			if got := pr.PairProduct(pairs); !same(pr, e2, got, want) {
				t.Fatalf("run %d: PairProduct != oracle product: %v vs %v", run, e2.FromLimbs(got), want)
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
	pairing.ForEachPreset(t, func(t *testing.T, pr *pairing.Pairing) {
		e2 := oracle(t, pr)
		g := pairing.RandomSubgroupPoints(t, pr, 1, "P")[0]
		q := pairing.RandomSubgroupPoints(t, pr, 1, "Q")[0]
		k, err := pr.C.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		kg, kq := ref.ScalarMultAffine(pr.C, k, g), ref.ScalarMultAffine(pr.C, k, q)
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
			if e2.Equal(ref.PairAffine(pr.C, tc.p1, tc.q1), ref.PairAffine(pr.C, tc.p2, tc.q2)) != tc.want {
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
