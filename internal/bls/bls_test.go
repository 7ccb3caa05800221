package bls

import (
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

func testSetup(t *testing.T) (*params.Set, *PrivateKey) {
	t.Helper()
	return testKey(t, params.MustPreset("Test160"))
}

func testKey(t *testing.T, set *params.Set) (*params.Set, *PrivateKey) {
	t.Helper()
	k, err := GenerateKey(set, nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return set, k
}

// flagged is a backend that reports one chosen point as lying outside
// the G2 subgroup. The BLS12-381 backend exports no way to build a
// real off-subgroup twist point (ParsePoint refuses them), so the
// predicate's subgroup row runs against this on every preset — it
// holds that the verifiers ask Backend.InSubgroup about the signature
// and honour the answer — and additionally against a genuine
// off-subgroup forgery on Test160 (withTorsion).
type flagged struct {
	backend.Backend
	bad curve.Point
}

func (f flagged) InSubgroup(g backend.Group, p curve.Point) bool {
	if g == backend.G2 && f.Equal(g, p, f.bad) {
		return false
	}
	return f.Backend.InSubgroup(g, p)
}

// withTorsion adds the 2-torsion point (0, 0) of y² = x³ + x to a
// Type-1 signature. The result is outside the order-q subgroup, yet the
// reduced Tate pairing kills the torsion component, so the pairing
// EQUATION still holds: only the subgroup clause rejects it.
func withTorsion(set *params.Set, sig curve.Point) curve.Point {
	return set.B.Add(backend.G2, sig, curve.Point{X: new(big.Int), Y: new(big.Int)})
}

// TestPredicate is the one table over the one predicate — signature is
// not the identity ∧ lies in the G2 subgroup ∧ ê(G, sig) = ê(sG, h) —
// run against both ways in (Verify on the unprepared SamePairing path,
// VerifyPrepared on a PrepareKey) on both backends.
func TestPredicate(t *testing.T) {
	for _, preset := range []string{"Test160", "BLS12-381"} {
		t.Run(preset, func(t *testing.T) {
			set, k := testKey(t, params.MustPreset(preset))
			_, other := testKey(t, set)
			b := set.B
			h := b.HashToG2("time", []byte("2026-08-06T00:00:00Z"))
			sig := k.Sign(set, "time", []byte("2026-08-06T00:00:00Z"))

			// A well-formed signature that the backend is told to
			// disown: only the subgroup clause can reject it.
			disowned := *set
			disowned.B = flagged{Backend: b, bad: sig}

			type row struct {
				name   string
				set    *params.Set
				pub    PublicKey
				h, sig curve.Point
				want   bool
			}
			cases := []row{
				{"valid", set, k.Pub, h, sig, true},
				{"identity", set, k.Pub, h, b.Infinity(backend.G2), false},
				{"identity under the identity hash", set, k.Pub, b.Infinity(backend.G2), b.Infinity(backend.G2), false},
				{"outside the subgroup", &disowned, k.Pub, h, sig, false},
				{"wrong hash", set, k.Pub, b.HashToG2("time", []byte("other")), sig, false},
				{"wrong domain", set, k.Pub, b.HashToG2("other", []byte("2026-08-06T00:00:00Z")), sig, false},
				{"wrong key", set, other.Pub, h, sig, false},
				{"tampered", set, k.Pub, h, b.Add(backend.G2, sig, h), false},
			}
			if !set.Asymmetric() {
				forged := withTorsion(set, sig)
				if !b.SamePairing(k.Pub.G, forged, k.Pub.SG, h) {
					t.Fatal("the torsion component should be invisible to the pairing equation")
				}
				cases = append(cases, row{"genuinely outside the subgroup", set, k.Pub, h, forged, false})
			}
			for _, tc := range cases {
				if got := Verify(tc.set, tc.pub, tc.h, tc.sig); got != tc.want {
					t.Errorf("%s: Verify = %v, want %v", tc.name, got, tc.want)
				}
				pk := b.PrepareKey(tc.pub.G, tc.pub.SG, tc.pub.SG2)
				if got := VerifyPrepared(tc.set, pk, tc.h, tc.sig); got != tc.want {
					t.Errorf("%s: VerifyPrepared = %v, want %v", tc.name, got, tc.want)
				}
			}
		})
	}
}

func TestSignatureIsDeterministic(t *testing.T) {
	// s·H1(m) has no signing nonce — the same (key, message) always gives
	// the same short signature. This is what lets the time server publish
	// one canonical update per instant.
	set, k := testSetup(t)
	s1 := k.Sign(set, "time", []byte("T"))
	s2 := k.Sign(set, "time", []byte("T"))
	if !set.B.Equal(backend.G2, s1, s2) {
		t.Fatal("BLS signatures must be deterministic")
	}
}

func TestNewPrivateKeyValidation(t *testing.T) {
	set, _ := testSetup(t)
	if _, err := NewPrivateKey(set, set.G, new(big.Int)); err == nil {
		t.Fatal("zero scalar must be rejected")
	}
	if _, err := NewPrivateKey(set, set.G, set.Q); err == nil {
		t.Fatal("scalar = q must be rejected")
	}
	if _, err := GenerateKeyWithGenerator(set, curve.Infinity(), nil); err == nil {
		t.Fatal("identity generator must be rejected")
	}
}

func TestCustomGenerator(t *testing.T) {
	set, _ := testSetup(t)
	r, err := set.B.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	k, err := GenerateKeyWithGenerator(set, set.B.ScalarMult(backend.G1, r, set.G), nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("per-server generator")
	if !Verify(set, k.Pub, set.B.HashToG2("time", msg), k.Sign(set, "time", msg)) {
		t.Fatal("signature under custom generator must verify")
	}
}

func TestSignatureSize(t *testing.T) {
	// "Short signature": one compressed group element.
	set, k := testSetup(t)
	enc := set.B.AppendPoint(nil, backend.G2, k.Sign(set, "time", []byte("m")))
	if len(enc) != set.B.PointLen(backend.G2) {
		t.Fatalf("signature encodes to %d bytes, want %d", len(enc), set.B.PointLen(backend.G2))
	}
}
