// Package bls is the single owner of the Boneh–Lynn–Shacham short-
// signature predicate over the pairing backend. In the paper, a
// time-bound key update I_T is exactly a BLS signature s·H1(T) by the
// time server — "self-authenticated" because anyone can check
// ê(G, I_T) = ê(sG, H1(T)) without any additional signature (§5.3.1).
// Threshold partials, identity keys, witness attestations and blind
// tokens are the same signature under other hash domains, and all of
// them verify here: Verify against a key used once, VerifyPrepared
// against a prepared one, VerifyAggregate and VerifyBatch over runs.
//
// Keys live in G1 and signatures (with the hashed messages) in G2; on
// the paper's Type-1 backends the two groups coincide.
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

// Sign produces the short signature s·H1(msg) ∈ G2 under the
// domain-separated hash oracle dst. A signature is a bare curve.Point:
// one compressed G2 element on the wire.
func (k *PrivateKey) Sign(set *params.Set, dst string, msg []byte) curve.Point {
	return set.B.ScalarMult(backend.G2, k.S, set.B.HashToG2(dst, msg))
}

// validSig is the point half of the BLS predicate, shared by every
// verifier: a signature must be a non-identity point of the G2
// subgroup before any pairing equation means anything.
func validSig(set *params.Set, sig curve.Point) bool {
	return !sig.IsInfinity() && set.B.InSubgroup(backend.G2, sig)
}

// Verify checks ê(G, sig) = ê(sG, h) for h = H1(msg) against a key used
// once (a threshold share, an identity key, an attestation): no
// precomputation, one unprepared pairing product. The caller hashes —
// it owns the domain. Identity and out-of-subgroup signatures are
// rejected.
func Verify(set *params.Set, pub PublicKey, h, sig curve.Point) bool {
	return validSig(set, sig) && set.B.SamePairing(pub.G, sig, pub.SG, h)
}

// VerifyPrepared is Verify against a prepared key: pk = Backend.PrepareKey
// holds the fixed-argument pairing precomputation (roughly one pairing
// to build, repaid from the second check on), so the time-server trust
// anchor and the token gate verify here. It accepts exactly what Verify
// accepts.
func VerifyPrepared(set *params.Set, pk backend.PreparedKey, h, sig curve.Point) bool {
	return validSig(set, sig) && pk.PairCheck(h, sig)
}

// AggregateInto folds points into a running same-key aggregate:
// acc + Σ sigᵢ = s·ΣH1(mᵢ). Start from Backend.Infinity(G2). Only
// VerifyAggregate calls it, so it goes with it (ROADMAP item 1(ii)).
func AggregateInto(set *params.Set, acc curve.Point, sigs ...curve.Point) curve.Point {
	for _, s := range sigs {
		acc = set.B.Add(backend.G2, acc, s)
	}
	return acc
}

// VerifyAggregate checks a same-key aggregate against messages already
// hashed onto the curve. No production caller; kept for benchmark/
// (through core.VerifyUpdateAggregate) until ROADMAP item 1(i).
//
//	ê(G, agg) = ê(sG, Σ hᵢ)
//
// — one prepared pairing product however many messages the aggregate
// covers (the O(1)-pairing catch-up check). An empty hash list verifies
// iff agg is the identity.
//
// The equation binds agg to the SUM of the hashes: it proves every
// listed message was signed provided the list itself is honest, and
// messages must be distinct for the usual aggregate-security argument.
// A transport that can alter the list is only caught by the per-update
// checks — the blinded batch equation the client admits pages on.
func VerifyAggregate(set *params.Set, pk backend.PreparedKey, hashes []curve.Point, agg curve.Point) bool {
	if len(hashes) == 0 {
		return agg.IsInfinity()
	}
	return VerifyPrepared(set, pk, AggregateInto(set, set.B.Infinity(backend.G2), hashes...), agg)
}
