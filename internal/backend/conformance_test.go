package backend_test

import (
	"bytes"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls381"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// testBackends returns every backend under its display name. The
// symmetric entry is the SS512 preset's own adapter.
func testBackends(t *testing.T) map[string]backend.Backend {
	t.Helper()
	set := params.MustPreset("SS512")
	return map[string]backend.Backend{
		"symmetric": set.B,
		"bls12381":  bls381.New(),
	}
}

func randScalar(t *testing.T, b backend.Backend) *big.Int {
	t.Helper()
	k, err := b.RandScalar(nil)
	if err != nil {
		t.Fatalf("RandScalar: %v", err)
	}
	return k
}

// TestBackendGroupLaws exercises add/neg/scalar-mult consistency and
// the serialization round trip in both groups through the interface.
func TestBackendGroupLaws(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, g := range []backend.Group{backend.G1, backend.G2} {
				gen := b.Generator(g)
				if !b.IsOnCurve(g, gen) || !b.InSubgroup(g, gen) {
					t.Fatalf("%v generator fails membership", g)
				}
				k, m := randScalar(t, b), randScalar(t, b)
				kP := b.ScalarMult(g, k, gen)
				mP := b.ScalarMult(g, m, gen)
				// (k+m)·G == k·G + m·G (scalar sum reduced mod r).
				sum := new(big.Int).Add(k, m)
				if !b.Equal(g, b.ScalarMult(g, sum, gen), b.Add(g, kP, mP)) {
					t.Fatalf("%v distributivity fails", g)
				}
				// P + (−P) == 0.
				if !b.Equal(g, b.Add(g, kP, b.Neg(g, kP)), b.Infinity(g)) {
					t.Fatalf("%v neg/add identity fails", g)
				}
				// r·G == 0.
				if !b.Equal(g, b.ScalarMult(g, new(big.Int).Set(b.Order()), gen), b.Infinity(g)) {
					t.Fatalf("%v order annihilation fails", g)
				}
				// Serialization round trip, and infinity too.
				enc := b.AppendPoint(nil, g, kP)
				if len(enc) != b.PointLen(g) {
					t.Fatalf("%v encoding length %d != PointLen %d", g, len(enc), b.PointLen(g))
				}
				dec, err := b.ParsePoint(g, enc)
				if err != nil {
					t.Fatalf("%v ParsePoint: %v", g, err)
				}
				if !b.Equal(g, dec, kP) {
					t.Fatalf("%v marshal round trip fails", g)
				}
				infEnc := b.AppendPoint(nil, g, b.Infinity(g))
				infDec, err := b.ParsePoint(g, infEnc)
				if err != nil || !infDec.IsInfinity() {
					t.Fatalf("%v infinity round trip: %v", g, err)
				}
			}
		})
	}
}

// TestBackendPairing checks bilinearity, SamePairing and the GT ops.
func TestBackendPairing(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			g1 := b.Generator(backend.G1)
			g2 := b.Generator(backend.G2)
			a, c := randScalar(t, b), randScalar(t, b)
			aP := b.ScalarMult(backend.G1, a, g1)
			cQ := b.ScalarMult(backend.G2, c, g2)

			// e(aP, cQ) == e(P, Q)^(ac).
			lhs := b.Pair(aP, cQ)
			base := b.Pair(g1, g2)
			ac := new(big.Int).Mul(a, c)
			ac.Mod(ac, b.Order())
			if !b.GTEqual(lhs, b.GTExpUnitary(base, ac)) {
				t.Fatal("bilinearity fails")
			}
			if b.GTIsOne(base) {
				t.Fatal("pairing is degenerate")
			}
			if !b.GTIsOne(b.GTOne()) {
				t.Fatal("GTOne is not one")
			}
			// Identity on either side gives 1.
			if !b.GTIsOne(b.Pair(b.Infinity(backend.G1), cQ)) ||
				!b.GTIsOne(b.Pair(aP, b.Infinity(backend.G2))) {
				t.Fatal("pairing with identity is not one")
			}
			// Product form: e(aP, Q)·e(P, cQ) == e(P, Q)^(a+c).
			prod := b.PairProduct([]backend.PointPair{{P: aP, Q: g2}, {P: g1, Q: cQ}})
			apc := new(big.Int).Add(a, c)
			apc.Mod(apc, b.Order())
			if !b.GTEqual(prod, b.GTExpUnitary(base, apc)) {
				t.Fatal("pair product fails")
			}
			if !b.GTEqual(prod, b.GTMul(b.Pair(aP, g2), b.Pair(g1, cQ))) {
				t.Fatal("GTMul disagrees with PairProduct")
			}
			// SamePairing: e(aP, Q) == e(P, aQ).
			aQ := b.ScalarMult(backend.G2, a, g2)
			if !b.SamePairing(aP, g2, g1, aQ) {
				t.Fatal("SamePairing rejects equal pairings")
			}
			if b.SamePairing(aP, g2, g1, cQ) {
				t.Fatal("SamePairing accepts unequal pairings")
			}
			// GTBytes: fixed length, equal elements encode equal.
			if !bytes.Equal(b.GTBytes(lhs), b.GTBytes(b.GTExpUnitary(base, ac))) {
				t.Fatal("GTBytes not canonical")
			}
		})
	}
}

// TestBackendPreparedKey drives the two PreparedKey equations with a
// fresh server key on each backend. The unprepared Backend.SamePairing
// is the oracle: PairCheck(h, sig) must equal SamePairing(G, sig, sG, h)
// on accept and on reject. Identity, subgroup and hash-sum handling are
// package bls's (bls.TestPredicate, bls.TestVerifyAggregate).
func TestBackendPreparedKey(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			g1 := b.Generator(backend.G1)
			g2 := b.Generator(backend.G2)
			s := randScalar(t, b)
			sG := b.ScalarMult(backend.G1, s, g1)
			sG2 := b.ScalarMult(backend.G2, s, g2)
			pk := b.PrepareKey(g1, sG, sG2)

			h := b.HashToG2("tre:h1", []byte("2026-08-07"))
			if !b.InSubgroup(backend.G2, h) {
				t.Fatal("HashToG2 output outside subgroup")
			}
			h2 := b.HashToG2("tre:h1", []byte("2026-08-08"))
			if b.Equal(backend.G2, h, h2) {
				t.Fatal("HashToG2 collides on distinct messages")
			}
			if b.Equal(backend.G2, h, b.HashToG2("tre:other", []byte("2026-08-07"))) {
				t.Fatal("HashToG2 ignores the domain")
			}

			sig := b.ScalarMult(backend.G2, s, h)
			for _, tc := range []struct {
				name   string
				h, sig curve.Point
				want   bool
			}{
				{"valid signature", h, sig, true},
				{"wrong hash", h2, sig, false},
				{"tampered signature", h, b.Add(backend.G2, sig, h), false},
				{"identity on both sides", b.Infinity(backend.G2), b.Infinity(backend.G2), true},
			} {
				got := pk.PairCheck(tc.h, tc.sig)
				if oracle := b.SamePairing(g1, tc.sig, sG, tc.h); got != oracle || got != tc.want {
					t.Fatalf("%s: PairCheck = %v, SamePairing = %v, want %v", tc.name, got, oracle, tc.want)
				}
			}

			a := randScalar(t, b)
			aG := b.ScalarMult(backend.G1, a, g1)
			asG := b.ScalarMult(backend.G1, a, sG)
			if !pk.SameKey(aG, asG) {
				t.Fatal("SameKey rejects a well-formed user key")
			}
			if pk.SameKey(aG, b.ScalarMult(backend.G1, randScalar(t, b), sG)) {
				t.Fatal("SameKey accepts a mismatched user key")
			}
		})
	}
}

// TestZeroPointIsIdentity pins curve.Point's documented zero value: on
// every backend and group, curve.Point{} is the identity to Add, Neg,
// ScalarMult, Pair and AppendPoint, and equals the backend's own.
func TestZeroPointIsIdentity(t *testing.T) {
	var zero curve.Point
	if !zero.IsInfinity() {
		t.Fatal("curve.Point{} does not report IsInfinity")
	}
	k := big.NewInt(7)
	for _, name := range []string{"Test160", "SS512", params.PresetBLS12381} {
		t.Run(name, func(t *testing.T) {
			b := params.MustPreset(name).B
			for _, g := range []backend.Group{backend.G1, backend.G2} {
				gen, inf := b.Generator(g), b.Infinity(g)
				for _, c := range []struct {
					op        string
					got, want curve.Point
				}{
					{"Add(0, G)", b.Add(g, zero, gen), gen},
					{"Add(G, 0)", b.Add(g, gen, zero), gen},
					{"Add(0, 0)", b.Add(g, zero, zero), inf},
					{"Add(0, ∞)", b.Add(g, zero, inf), inf},
					{"Neg(0)", b.Neg(g, zero), inf},
					{"[k]0", b.ScalarMult(g, k, zero), inf},
				} {
					if !b.Equal(g, c.got, c.want) {
						t.Errorf("%v %s = %v, want %v", g, c.op, c.got, c.want)
					}
				}
				if !b.Equal(g, zero, inf) || !bytes.Equal(b.AppendPoint(nil, g, zero), b.AppendPoint(nil, g, inf)) {
					t.Errorf("%v: curve.Point{} is not the backend's identity", g)
				}
			}
			g1, g2 := b.Generator(backend.G1), b.Generator(backend.G2)
			if !b.GTIsOne(b.Pair(zero, g2)) || !b.GTIsOne(b.Pair(g1, zero)) {
				t.Error("a pairing with curve.Point{} is not 1")
			}
		})
	}
}
