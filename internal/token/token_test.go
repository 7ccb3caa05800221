package token

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// tokenPresets are the two backend families every protocol-level test
// runs under: the paper's symmetric pairing and the Type-3 BLS12-381
// port. The blind-token math must be backend-agnostic.
func tokenPresets(t *testing.T) []*params.Set {
	t.Helper()
	return []*params.Set{
		params.MustPreset("Test160"),
		params.MustPreset(params.PresetBLS12381),
	}
}

func TestIssueRedeemRoundTrip(t *testing.T) {
	for _, set := range tokenPresets(t) {
		t.Run(set.Name, func(t *testing.T) {
			iss, err := GenerateIssuer(set, nil)
			if err != nil {
				t.Fatal(err)
			}
			pending, blinded, err := Blind(set, nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			signed, err := iss.SignBlinded(blinded)
			if err != nil {
				t.Fatal(err)
			}
			toks, err := Unblind(set, iss.Public(), pending, signed)
			if err != nil {
				t.Fatal(err)
			}
			v := NewVerifier(set, iss.Public(), NewLedger())
			for _, tok := range toks {
				if err := v.Redeem(tok); err != nil {
					t.Fatalf("fresh token rejected: %v", err)
				}
				if err := v.Redeem(tok); !errors.Is(err, ErrDoubleSpend) {
					t.Fatalf("second redemption: got %v, want ErrDoubleSpend", err)
				}
			}
		})
	}
}

func TestRedeemRejectsForgeries(t *testing.T) {
	for _, set := range tokenPresets(t) {
		t.Run(set.Name, func(t *testing.T) {
			iss, err := GenerateIssuer(set, nil)
			if err != nil {
				t.Fatal(err)
			}
			other, err := GenerateIssuer(set, nil)
			if err != nil {
				t.Fatal(err)
			}
			v := NewVerifier(set, iss.Public(), NewLedger())

			// A token signed by a different key.
			pending, blinded, err := Blind(set, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			signed, err := other.SignBlinded(blinded)
			if err != nil {
				t.Fatal(err)
			}
			toks, err := Unblind(set, other.Public(), pending, signed)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Redeem(toks[0]); !errors.Is(err, ErrBadToken) {
				t.Fatalf("foreign-key token: got %v, want ErrBadToken", err)
			}
			// Unblinding against the wrong public key must fail
			// client-side, before the wallet.
			if _, err := Unblind(set, iss.Public(), pending, signed); !errors.Is(err, ErrBadToken) {
				t.Fatalf("unblind under wrong key: got %v, want ErrBadToken", err)
			}

			// A seed swap after signing.
			pending2, blinded2, err := Blind(set, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			signed2, err := iss.SignBlinded(blinded2)
			if err != nil {
				t.Fatal(err)
			}
			toks2, err := Unblind(set, iss.Public(), pending2, signed2)
			if err != nil {
				t.Fatal(err)
			}
			forged := toks2[0]
			forged.Seed[0] ^= 1
			if err := v.Redeem(forged); !errors.Is(err, ErrBadToken) {
				t.Fatalf("seed-swapped token: got %v, want ErrBadToken", err)
			}
		})
	}
}

func TestIssuerRejectsMalformedBatches(t *testing.T) {
	set := params.MustPreset("Test160")
	iss, err := GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.SignBlinded(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	_, blinded, err := Blind(set, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Oversized batch.
	pts := blinded
	for len(pts) <= MaxBatch {
		pts = append(pts, blinded[0])
	}
	if _, err := iss.SignBlinded(pts); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// Identity point: a small-subgroup probe must be refused.
	inf := set.B.Infinity(backend.G2)
	if _, err := iss.SignBlinded(append(blinded[:0:0], inf)); err == nil {
		t.Fatal("identity point accepted")
	}
}

// TestBlindingUnlinkabilityWitness pins the unlinkability argument
// (docs/TOKENS.md): the server's view of an issuance — the blinded
// point B — is information-theoretically independent of which token it
// blinds. Discrete logs of real H1 outputs are unknowable, so the test
// works over token points with KNOWN dlogs T_i = w_i·G2 and exhibits
// the witness explicitly: for a blinded request B = T₁ + r₁·G2, the
// factor r₂ = w₁ + r₁ − w₂ satisfies T₂ + r₂·G2 = B. The SAME observed B is
// consistent with EVERY candidate token under a uniformly distributed
// blinding factor, so the issuer's transcript carries zero information
// about the token — this is the algebraic core, swept over many
// factors below.
func TestBlindingUnlinkabilityWitness(t *testing.T) {
	for _, set := range tokenPresets(t) {
		t.Run(set.Name, func(t *testing.T) {
			w1, err := set.B.RandScalar(nil)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := set.B.RandScalar(nil)
			if err != nil {
				t.Fatal(err)
			}
			t1 := set.B.ScalarMult(backend.G2, w1, set.G2)
			t2 := set.B.ScalarMult(backend.G2, w2, set.G2)

			const sweep = 32
			for i := 0; i < sweep; i++ {
				r1, err := set.B.RandScalar(nil)
				if err != nil {
					t.Fatal(err)
				}
				b := blindPoint(set, t1, r1)

				// The explaining factor for token 2: r₂ = w₁ + r₁ − w₂.
				r2 := new(big.Int).Add(w1, r1)
				r2.Sub(r2, w2)
				r2.Mod(r2, set.Q)

				if got := blindPoint(set, t2, r2); !set.B.Equal(backend.G2, got, b) {
					t.Fatalf("sweep %d: no blinding factor explains B for token 2 — issuance would be linkable", i)
				}
			}
		})
	}
}

// TestBlindingInjective pins the flip side: distinct blinding factors
// give distinct blinded points (r ↦ T + r·G2 is a bijection from the
// scalars onto the group), so the uniform choice of r makes B uniform —
// the distribution half of the unlinkability argument.
func TestBlindingInjective(t *testing.T) {
	set := params.MustPreset("Test160")
	w, err := set.B.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := set.B.ScalarMult(backend.G2, w, set.G2)
	seen := make(map[string]bool)
	const sweep = 128
	for i := 0; i < sweep; i++ {
		r, err := set.B.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		b := blindPoint(set, tp, r)
		key := string(set.B.AppendPoint(nil, backend.G2, b))
		if seen[key] {
			t.Fatalf("sweep %d: repeated blinded point — blinding is not injective", i)
		}
		seen[key] = true
	}
}

func TestWalletRoundTrip(t *testing.T) {
	set := params.MustPreset("Test160")
	iss, err := GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	pending, blinded, err := Blind(set, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := Unblind(set, iss.Public(), pending, signed)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/wallet"
	w, err := OpenWallet(path, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(toks...); err != nil {
		t.Fatal(err)
	}

	// Reopen: all three survive, round-tripped through the file.
	w2, err := OpenWallet(path, set)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 3 {
		t.Fatalf("reopened wallet has %d tokens, want 3", w2.Len())
	}
	got, err := w2.Pop()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, want := range toks {
		if bytes.Equal(got.Seed[:], want.Seed[:]) && set.B.Equal(backend.G2, got.Sig, want.Sig) {
			found = true
		}
	}
	if !found {
		t.Fatal("popped token does not match any stored token")
	}
	// The pop is durable: a third open sees 2.
	w3, err := OpenWallet(path, set)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Len() != 2 {
		t.Fatalf("wallet after pop has %d tokens, want 2", w3.Len())
	}

	// Set mismatch fails closed.
	if _, err := OpenWallet(path, params.MustPreset(params.PresetBLS12381)); err == nil {
		t.Fatal("wallet opened under the wrong parameter set")
	}
}

// TestRedeemRejectsOffSubgroupSig pins the one subgroup check on the
// redemption path (bls.VerifyPrepared's). The forgery is a
// genuine signature plus the 2-torsion point (0, 0): the reduced Tate
// pairing kills the torsion component, so the pairing EQUATION still
// holds and only the subgroup clause stands between this token and
// admission.
func TestRedeemRejectsOffSubgroupSig(t *testing.T) {
	set := params.MustPreset("Test160")
	iss, err := GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An explicit blinding factor; additive unblinding keeps a torsion
	// component of the response as it is.
	pending := []Pending{{Seed: [SeedLen]byte{1}, R: big.NewInt(3)}}
	blinded := []curve.Point{blindPoint(set, set.B.HashToG2(Domain, pending[0].Seed[:]), pending[0].R)}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := Unblind(set, iss.Public(), pending, signed)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := set.B.(*backend.Symmetric).Type1()
	torsion, err := c.NewPoint(new(big.Int), new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	forged := toks[0]
	forged.Sig = set.B.Add(backend.G2, forged.Sig, torsion)
	if set.B.InSubgroup(backend.G2, forged.Sig) {
		t.Fatal("forgery landed in the subgroup")
	}
	pub := iss.Public()
	h := set.B.HashToG2(Domain, forged.Seed[:])
	if !set.B.SamePairing(pub.G, forged.Sig, pub.SG, h) {
		t.Fatal("the torsion component should be invisible to the pairing equation")
	}

	v := NewVerifier(set, pub, NewLedger())
	if err := v.Redeem(forged); !errors.Is(err, ErrBadToken) {
		t.Fatalf("off-subgroup signature: got %v, want ErrBadToken", err)
	}
	forged.Sig = set.B.Infinity(backend.G2)
	if err := v.Redeem(forged); !errors.Is(err, ErrBadToken) {
		t.Fatalf("identity signature: got %v, want ErrBadToken", err)
	}
	if v.Ledger().Spent(forged.ID()) {
		t.Fatal("a rejected token reached the ledger")
	}
	if err := v.Redeem(toks[0]); err != nil {
		t.Fatalf("the genuine token must still redeem: %v", err)
	}

	// Unblind: an issuer answering with signature + torsion is refused
	// before the wallet sees it.
	signed[0] = set.B.Add(backend.G2, signed[0], torsion)
	if _, err := Unblind(set, pub, pending, signed); !errors.Is(err, ErrBadToken) {
		t.Fatalf("unblind of an off-subgroup signature: got %v, want ErrBadToken", err)
	}
}
