// Package bls implements Boneh–Lynn–Shacham short signatures over the
// pairing backend. In the paper, a time-bound key update I_T is
// exactly a BLS signature s·H1(T) by the time server — "self-
// authenticated" because anyone can check ê(G, I_T) = ê(sG, H1(T))
// without any additional signature (§5.3.1).
//
// Keys live in G1 and signatures (with the hashed messages) in G2; on
// the paper's Type-1 backends the two groups coincide and every
// operation below reduces bit-for-bit to the historical symmetric
// code.
//
// The package also provides same-key aggregation (point addition of
// signatures), which the policy-lock generalisation uses to combine the
// updates of all conditions in an AND clause into one decryption key.
package bls

import (
	"errors"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// PublicKey is a BLS verification key: the generator used, s·G, and
// the G2 mirror s·G2 that asymmetric backends need for pairing checks
// whose second slot must hold the key (the user-key well-formedness
// equation). On a symmetric backend SG2 == SG.
type PublicKey struct {
	G   curve.Point // generator of G1
	SG  curve.Point // s·G ∈ G1
	SG2 curve.Point // s·G2 ∈ G2 (same point as SG when symmetric)
}

// PrivateKey is a BLS signing key.
type PrivateKey struct {
	S   *big.Int
	Pub PublicKey
}

// Signature is a BLS short signature: a single compressed G2 element.
type Signature struct {
	Point curve.Point // s·H1(msg) ∈ G2
}

// GenerateKey creates a key pair over the canonical generator of set.
func GenerateKey(set *params.Set, rng io.Reader) (*PrivateKey, error) {
	return GenerateKeyWithGenerator(set, set.G, rng)
}

// GenerateKeyWithGenerator creates a key pair over an explicit generator
// g (the multi-server construction gives each server its own generator).
func GenerateKeyWithGenerator(set *params.Set, g curve.Point, rng io.Reader) (*PrivateKey, error) {
	if g.IsInfinity() || !set.B.InSubgroup(backend.G1, g) {
		return nil, errors.New("bls: generator must be a non-identity subgroup point")
	}
	s, err := set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return NewPrivateKey(set, g, s)
}

// NewPrivateKey builds a key pair from an explicit scalar (used by
// deterministic tests and key-recovery tools). The scalar must be in
// [1, q-1].
func NewPrivateKey(set *params.Set, g curve.Point, s *big.Int) (*PrivateKey, error) {
	if s.Sign() <= 0 || s.Cmp(set.Q) >= 0 {
		return nil, errors.New("bls: scalar out of range [1, q-1]")
	}
	sg := set.B.ScalarMult(backend.G1, s, g)
	sg2 := sg
	if set.Asymmetric() {
		sg2 = set.B.ScalarMult(backend.G2, s, set.G2)
	}
	return &PrivateKey{
		S:   new(big.Int).Set(s),
		Pub: PublicKey{G: g.Clone(), SG: sg, SG2: sg2},
	}, nil
}

// Sign produces the short signature s·H1(msg) under the domain-separated
// hash oracle dst.
func (k *PrivateKey) Sign(set *params.Set, dst string, msg []byte) Signature {
	h := set.B.HashToG2(dst, msg)
	return Signature{Point: set.B.ScalarMult(backend.G2, k.S, h)}
}

// Verify checks ê(G, sig) = ê(sG, H1(msg)). It rejects identity or
// out-of-subgroup signature points.
func Verify(set *params.Set, pub PublicKey, dst string, msg []byte, sig Signature) bool {
	if sig.Point.IsInfinity() || !set.B.InSubgroup(backend.G2, sig.Point) {
		return false
	}
	h := set.B.HashToG2(dst, msg)
	return set.B.SamePairing(pub.G, sig.Point, pub.SG, h)
}

// emptyAggregate reports whether p is a zero-value Signature point —
// neither a Type-1 point, an external-backend point, nor the tagged
// identity — which the aggregate folders treat as the empty aggregate.
func emptyAggregate(p curve.Point) bool {
	return p.X == nil && p.Ext == nil && !p.IsInfinity()
}

// Aggregate sums signatures by the same key over distinct messages into
// one signature: Σ s·H1(mᵢ) = s·ΣH1(mᵢ).
func Aggregate(set *params.Set, sigs []Signature) Signature {
	acc := set.B.Infinity(backend.G2)
	for _, s := range sigs {
		acc = set.B.Add(backend.G2, acc, s.Point)
	}
	return Signature{Point: acc}
}

// AggregateInto folds more signatures into a running same-key
// aggregate: AggregateInto(acc, s₁…sₙ) = acc + Σsᵢ. Starting from the
// zero Signature (or one whose point is the identity) and folding every
// signature of a set is equivalent to Aggregate over the whole set —
// this is what the archive's prefix aggregates are built from, one
// append at a time, without re-summing the prefix.
func AggregateInto(set *params.Set, acc Signature, sigs ...Signature) Signature {
	p := acc.Point
	if emptyAggregate(p) {
		p = set.B.Infinity(backend.G2)
	}
	for _, s := range sigs {
		p = set.B.Add(backend.G2, p, s.Point)
	}
	return Signature{Point: p}
}

// VerifyAggregate checks a same-key aggregate over the message list:
// ê(G, agg) = ê(sG, Σ H1(mᵢ)). Messages must be distinct for the usual
// aggregate-security argument; this function does not enforce that.
func VerifyAggregate(set *params.Set, pub PublicKey, dst string, msgs [][]byte, agg Signature) bool {
	if agg.Point.IsInfinity() || !set.B.InSubgroup(backend.G2, agg.Point) {
		return false
	}
	hsum := set.B.Infinity(backend.G2)
	for _, m := range msgs {
		hsum = set.B.Add(backend.G2, hsum, set.B.HashToG2(dst, m))
	}
	return set.B.SamePairing(pub.G, agg.Point, pub.SG, hsum)
}
