// Package bfibe implements Boneh–Franklin BasicIdent identity-based
// encryption over the same pairing backend as the rest of the repository
// (master key and header in G1, hashed identities and extracted keys in
// G2). It serves two roles in the reproduction:
//
//   - the IBE half of the hybrid PKE+IBE baseline (paper footnote 3)
//     that the "50% reduction" claim is measured against (experiment E1);
//   - the substrate of the Mont et al. HP time-vault server model, where
//     the server extracts and individually delivers a per-user private
//     key sH1(ID‖T) every epoch (experiment E2).
package bfibe

import (
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// IdentityDomain is the H1 domain for BF-IBE identities.
const IdentityDomain = "bfibe-identity"

// Scheme binds BasicIdent to a parameter set.
type Scheme struct {
	Set *params.Set
}

// NewScheme returns a BasicIdent instance.
func NewScheme(set *params.Set) *Scheme { return &Scheme{Set: set} }

// MasterKey is the private key generator's key pair.
type MasterKey struct {
	S   *big.Int
	Pub MasterPublicKey
}

// MasterPublicKey is the PKG's public key (G, sG).
type MasterPublicKey struct {
	G  curve.Point
	SG curve.Point
}

// PrivateKey is an extracted identity key s·H1(ID).
type PrivateKey struct {
	ID string
	D  curve.Point
}

// MasterKeyGen creates the PKG key pair.
func (sc *Scheme) MasterKeyGen(rng io.Reader) (*MasterKey, error) {
	s, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return &MasterKey{
		S: s,
		Pub: MasterPublicKey{
			G:  sc.Set.G,
			SG: sc.Set.B.ScalarMult(backend.G1, s, sc.Set.G),
		},
	}, nil
}

// Extract derives the private key for an identity.
func (sc *Scheme) Extract(mk *MasterKey, id string) PrivateKey {
	h := sc.Set.B.HashToG2(IdentityDomain, []byte(id))
	return PrivateKey{ID: id, D: sc.Set.B.ScalarMult(backend.G2, mk.S, h)}
}

// Ciphertext is the BasicIdent ciphertext ⟨rG, M ⊕ H2(g_ID^r)⟩.
type Ciphertext struct {
	U curve.Point
	V []byte
}

// Encrypt encrypts msg to an identity.
func (sc *Scheme) Encrypt(rng io.Reader, pub MasterPublicKey, id string, msg []byte) (*Ciphertext, error) {
	b := sc.Set.B
	r, err := b.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("bfibe: sampling randomness: %w", err)
	}
	h := b.HashToG2(IdentityDomain, []byte(id))
	k := b.Pair(b.ScalarMult(backend.G1, r, pub.SG), h)
	return &Ciphertext{
		U: b.ScalarMult(backend.G1, r, pub.G),
		V: rohash.XOR(msg, sc.mask(k, len(msg))),
	}, nil
}

// Decrypt recovers the message with the extracted identity key.
func (sc *Scheme) Decrypt(priv PrivateKey, ct *Ciphertext) ([]byte, error) {
	if ct == nil || !sc.Set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, fmt.Errorf("bfibe: malformed ciphertext")
	}
	k := sc.Set.B.Pair(ct.U, priv.D)
	return rohash.XOR(ct.V, sc.mask(k, len(ct.V))), nil
}

func (sc *Scheme) mask(k backend.GT, n int) []byte {
	return rohash.Expand("BFIBE-H2", sc.Set.B.GTBytes(k), n)
}
