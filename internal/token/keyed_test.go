package token

import (
	"errors"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

// TestKeyedRedeemMatchesPairing is the differential test of the two
// redemption checks: a verifier keyed by its issuer (S = x·H1(seed),
// compared on encodings) and the public-key verifier (the pairing
// equation) return the same verdict on every input, each over its own
// ledger, and a rejected token grows neither ledger.
func TestKeyedRedeemMatchesPairing(t *testing.T) {
	for _, name := range []string{"Test160", "SS512", params.PresetBLS12381} {
		set := params.MustPreset(name)
		t.Run(name, func(t *testing.T) {
			is := newIssuance(t, set, 2)
			toks, err := Unblind(set, is.iss.Public(), is.pending, is.signed)
			if err != nil {
				t.Fatal(err)
			}
			foreign := newIssuance(t, set, 1)
			foreignToks, err := Unblind(set, foreign.iss.Public(), foreign.pending, foreign.signed)
			if err != nil {
				t.Fatal(err)
			}
			// Both verifiers over fresh ledgers, so every input reaches
			// the signature check.
			verifiers := func() (pairing, keyed *Verifier) {
				pairing = NewVerifier(set, is.iss.Public(), NewLedger())
				keyed = NewVerifier(set, is.iss.Public(), NewLedger()).KeyedBy(is.iss)
				if keyed.x == nil || pairing.x != nil {
					t.Fatal("KeyedBy did not bind the issuer's own key")
				}
				if v := pairing.KeyedBy(foreign.iss); v != pairing {
					t.Fatal("KeyedBy bound a foreign issuer's key")
				}
				return pairing, keyed
			}

			honest, seed := toks[0], toks[0].Seed
			r, err := set.B.RandScalar(nil)
			if err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				name string
				tok  Token
			}{
				{"another seed's signature", Token{Seed: seed, Sig: toks[1].Sig}},
				{"another key's signature", Token{Seed: seed, Sig: foreign.iss.Key().Sign(set, Domain, seed[:])}},
				{"another key's token", foreignToks[0]},
				{"random subgroup point", Token{Seed: seed, Sig: set.B.ScalarMult(backend.G2, r, set.B.Generator(backend.G2))}},
				{"identity", Token{Seed: seed, Sig: set.B.Infinity(backend.G2)}},
				{"time-domain signature", Token{Seed: seed, Sig: is.iss.Key().Sign(set, core.TimeDomain, seed[:])}},
			}
			if !set.Asymmetric() {
				// The honest signature plus the 2-torsion point (0, 0):
				// the pairing equation holds, only the subgroup clause
				// rejects it.
				c, _ := set.B.(*backend.Symmetric).Type1()
				torsion, err := c.NewPoint(new(big.Int), new(big.Int))
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, struct {
					name string
					tok  Token
				}{"off-subgroup signature", Token{Seed: seed, Sig: set.B.Add(backend.G2, honest.Sig, torsion)}})
			}
			for _, tc := range cases {
				pairing, keyed := verifiers()
				errP, errK := pairing.Redeem(tc.tok), keyed.Redeem(tc.tok)
				if !errors.Is(errP, ErrBadToken) || !errors.Is(errK, ErrBadToken) {
					t.Errorf("%s: pairing %v, keyed %v; want ErrBadToken from both", tc.name, errP, errK)
				}
				if n, m := pairing.Ledger().Len(), keyed.Ledger().Len(); n != 0 || m != 0 {
					t.Errorf("%s: the rejected token grew the ledgers to %d and %d", tc.name, n, m)
				}
			}
			pairing, keyed := verifiers()
			for _, v := range []*Verifier{pairing, keyed} {
				if err := v.Redeem(honest); err != nil {
					t.Fatalf("honest token rejected: %v", err)
				}
				if err := v.Redeem(honest); !errors.Is(err, ErrDoubleSpend) {
					t.Fatalf("second redemption: got %v, want ErrDoubleSpend", err)
				}
				if v.Ledger().Len() != 1 {
					t.Fatalf("ledger holds %d tokens after one redemption", v.Ledger().Len())
				}
			}
		})
	}
}
