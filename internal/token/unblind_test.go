package token

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// issuance is one honest Blind → SignBlinded exchange, the fixture the
// tampering cases below start from.
type issuance struct {
	iss     *Issuer
	pending []Pending
	blinded []curve.Point
	signed  []curve.Point
}

func newIssuance(t *testing.T, set *params.Set, n int) issuance {
	t.Helper()
	iss, err := GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	pending, blinded, err := Blind(set, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	return issuance{iss, pending, blinded, signed}
}

// TestUnblindAdmitsExactlyHonestBatches pins the batch equation in
// Unblind to what the per-token loop before it admitted: an honest
// issuance yields n redeemable tokens, and any single dishonest
// response — including the ones a plain (unblinded) sum of the batch
// would miss — fails the whole batch with ErrBadToken and no tokens.
func TestUnblindAdmitsExactlyHonestBatches(t *testing.T) {
	reps := 32
	if testing.Short() {
		reps = 4
	}
	for _, set := range tokenPresets(t) {
		for _, n := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/n=%d", set.Name, n), func(t *testing.T) {
				is := newIssuance(t, set, n)
				pub := is.iss.Public()

				toks, err := Unblind(set, pub, is.pending, is.signed)
				if err != nil || len(toks) != n {
					t.Fatalf("honest batch: %d tokens, err %v", len(toks), err)
				}
				v := NewVerifier(set, pub, NewLedger())
				for i, tok := range toks {
					if err := v.Redeem(tok); err != nil {
						t.Fatalf("token %d of an honest batch rejected: %v", i, err)
					}
				}

				other, err := GenerateIssuer(set, nil)
				if err != nil {
					t.Fatal(err)
				}
				foreign, err := other.SignBlinded(is.blinded)
				if err != nil {
					t.Fatal(err)
				}
				// tamper returns false when the case needs a larger batch.
				cases := []struct {
					name   string
					tamper func(rng *rand.Rand, signed []curve.Point) bool
				}{
					{"signed under another key", func(rng *rand.Rand, signed []curve.Point) bool {
						i := rng.Intn(n)
						signed[i] = foreign[i]
						return true
					}},
					// S_i + D and S_j − D after unblinding: ΣS is unchanged,
					// so only the per-response blinders can see it.
					{"compensating pair", func(rng *rand.Rand, signed []curve.Point) bool {
						if n < 2 {
							return false
						}
						i := rng.Intn(n)
						j := (i + 1 + rng.Intn(n-1)) % n
						d := set.B.ScalarMult(backend.G2, big.NewInt(1+rng.Int63()), set.G2)
						signed[i] = set.B.Add(backend.G2, signed[i], blindPoint(set, d, is.pending[i].R))
						signed[j] = set.B.Add(backend.G2, signed[j], set.B.Neg(backend.G2, blindPoint(set, d, is.pending[j].R)))
						return true
					}},
					{"two responses swapped", func(rng *rand.Rand, signed []curve.Point) bool {
						if n < 2 {
							return false
						}
						i := rng.Intn(n)
						j := (i + 1 + rng.Intn(n-1)) % n
						signed[i], signed[j] = signed[j], signed[i]
						return true
					}},
					{"identity response", func(rng *rand.Rand, signed []curve.Point) bool {
						signed[rng.Intn(n)] = set.B.Infinity(backend.G2)
						return true
					}},
				}
				for _, c := range cases {
					rng := rand.New(rand.NewSource(int64(n)))
					for rep := 0; rep < reps; rep++ {
						signed := append([]curve.Point(nil), is.signed...)
						if !c.tamper(rng, signed) {
							break
						}
						toks, err := Unblind(set, pub, is.pending, signed)
						if !errors.Is(err, ErrBadToken) || toks != nil {
							t.Fatalf("%s, rep %d: got %d tokens and %v, want none and ErrBadToken", c.name, rep, len(toks), err)
						}
					}
				}

				for _, signed := range [][]curve.Point{is.signed[:n-1], append(is.signed[:n:n], is.signed[0])} {
					toks, err := Unblind(set, pub, is.pending, signed)
					if err == nil || toks != nil || !strings.Contains(err.Error(), "signatures for") {
						t.Fatalf("%d responses for %d requests: got %v", len(signed), n, err)
					}
				}

				// A Pending assembled by hand (seed and factor only) still
				// unblinds: Unblind hashes what Blind did not leave it.
				bare := make([]Pending, n)
				for i, p := range is.pending {
					bare[i] = Pending{Seed: p.Seed, R: p.R}
				}
				toks, err = Unblind(set, pub, bare, is.signed)
				if err != nil || len(toks) != n {
					t.Fatalf("hand-built pending: %d tokens, err %v", len(toks), err)
				}
			})
		}
	}
}

// countingBackend counts the hash-to-curve calls and the variable-base
// G2 multiplications made through a Set.
type countingBackend struct {
	backend.Backend
	hashes, ladders atomic.Int64
}

func (c *countingBackend) HashToG2(domain string, msg []byte) curve.Point {
	c.hashes.Add(1)
	return c.Backend.HashToG2(domain, msg)
}

func (c *countingBackend) ScalarMult(g backend.Group, k *big.Int, p curve.Point) curve.Point {
	if g == backend.G2 {
		c.ladders.Add(1)
	}
	return c.Backend.ScalarMult(g, k, p)
}

// TestIssuanceHashesEachSeedOnce: the client hashes a seed when it
// blinds it and never again — n calls in Blind, none in Unblind.
func TestIssuanceHashesEachSeedOnce(t *testing.T) {
	for _, preset := range tokenPresets(t) {
		set := *preset
		cb := &countingBackend{Backend: preset.B}
		set.B = cb
		for _, n := range []int{1, 2, 8} {
			iss, err := GenerateIssuer(&set, nil)
			if err != nil {
				t.Fatal(err)
			}
			cb.hashes.Store(0)
			pending, blinded, err := Blind(&set, nil, n)
			if err != nil {
				t.Fatal(err)
			}
			if got := cb.hashes.Swap(0); got != int64(n) {
				t.Fatalf("%s: Blind(%d) hashed %d times", set.Name, n, got)
			}
			signed, err := iss.SignBlinded(blinded)
			if err != nil {
				t.Fatal(err)
			}
			cb.hashes.Store(0)
			if _, err := Unblind(&set, iss.Public(), pending, signed); err != nil {
				t.Fatal(err)
			}
			if got := cb.hashes.Load(); got != 0 {
				t.Fatalf("%s: Unblind(%d) hashed %d times, want 0", set.Name, n, got)
			}
		}
	}
}

// TestIssuanceMakesNoG2Ladder: on BLS12-381 the client's two
// multiplications per token are by fixed bases, G2 and x·G2, walked on
// tables — Blind and Unblind make no variable-base G2 ScalarMult, while
// the issuer makes one per token (the counter's own check). Type-1
// backends answer PrepareBase with the ladder itself.
func TestIssuanceMakesNoG2Ladder(t *testing.T) {
	preset := params.MustPreset(params.PresetBLS12381)
	set := *preset
	cb := &countingBackend{Backend: preset.B}
	set.B = cb
	iss, err := GenerateIssuer(&set, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey(&set, iss.Public())
	for _, n := range []int{1, 8} {
		cb.ladders.Store(0)
		pending, blinded, err := Blind(&set, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := cb.ladders.Swap(0); got != 0 {
			t.Fatalf("Blind(%d) made %d G2 ladders, want 0", n, got)
		}
		signed, err := iss.SignBlinded(blinded)
		if err != nil {
			t.Fatal(err)
		}
		if got := cb.ladders.Swap(0); got != int64(n) {
			t.Fatalf("SignBlinded(%d) made %d G2 ladders, want %d", n, got, n)
		}
		for _, unblind := range []func() ([]Token, error){
			func() ([]Token, error) { return key.Unblind(pending, signed) },
			func() ([]Token, error) { return Unblind(&set, iss.Public(), pending, signed) },
		} {
			if toks, err := unblind(); err != nil || len(toks) != n {
				t.Fatalf("Unblind(%d): %d tokens, %v", n, len(toks), err)
			}
			if got := cb.ladders.Swap(0); got != 0 {
				t.Fatalf("Unblind(%d) made %d G2 ladders, want 0", n, got)
			}
		}
	}
}

// TestUnblindRejectsCompensatingPair: D added to one response and taken
// from another passes through additive unblinding unchanged, S_i + D
// and S_j − D, so ΣS is the honest sum and only the batch check's
// per-response blinders can see it.
func TestUnblindRejectsCompensatingPair(t *testing.T) {
	for _, set := range tokenPresets(t) {
		is := newIssuance(t, set, 4)
		d := set.B.ScalarMult(backend.G2, big.NewInt(0xD), set.G2)
		signed := append([]curve.Point(nil), is.signed...)
		signed[1] = set.B.Add(backend.G2, signed[1], d)
		signed[3] = set.B.Add(backend.G2, signed[3], set.B.Neg(backend.G2, d))
		if toks, err := Unblind(set, is.iss.Public(), is.pending, signed); !errors.Is(err, ErrBadToken) || toks != nil {
			t.Fatalf("%s: got %d tokens and %v, want none and ErrBadToken", set.Name, len(toks), err)
		}
	}
}

// BenchmarkIssuance times one BLS12-381 issuance of 8 tokens stage by
// stage: Blind, SignBlinded, Unblind against a kept Key (the client's
// path) and Unblind preparing the key for the call.
func BenchmarkIssuance(b *testing.B) {
	set := params.MustPreset(params.PresetBLS12381)
	iss, err := GenerateIssuer(set, nil)
	if err != nil {
		b.Fatal(err)
	}
	key := NewKey(set, iss.Public())
	pending, blinded, err := Blind(set, nil, 8)
	if err != nil {
		b.Fatal(err)
	}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Blind(set, nil, 8)
		}
	})
	b.Run("sign_blinded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			iss.SignBlinded(blinded)
		}
	})
	b.Run("unblind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key.Unblind(pending, signed)
		}
	})
	b.Run("unblind_new_key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Unblind(set, iss.Public(), pending, signed)
		}
	})
}
