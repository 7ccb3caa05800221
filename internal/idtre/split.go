package idtre

import (
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// Split-authority ID-TRE. §5.2 notes that "for the sake of simplicity,
// the time server is the same entity as the trusted server assigning
// private keys to users; in real cases, it could be a different
// entity." This file implements that real case, following the Chen et
// al. multiple-trust-authority pattern the scheme descends from: a PKG
// with secret s₁ extracts identity keys, an independent time server
// with secret s₂ issues the updates, and the two never share state:
//
//	K  = ê(s₁G, H1(ID))^r · ê(s₂G, H1(T))^r
//	K' = ê(U, s₁H1(ID) + s₂H1(T))
//
// Splitting narrows (but cannot eliminate) the escrow inherent to
// identity-based schemes: the time server can never decrypt (it cannot
// extract identity keys), and the PKG cannot decrypt BEFORE the release
// time (it lacks s₂·H1(T) until the public update appears). After
// release the PKG can still escrow-decrypt — that residual trust is what
// the paper's non-identity-based TRE removes entirely.

// SplitCiphertext is the two-authority ciphertext ⟨U, V⟩ (same shape as
// Ciphertext; a distinct type prevents cross-scheme confusion).
type SplitCiphertext struct {
	U curve.Point
	V []byte
}

// SplitEncrypt encrypts msg to an identity under PKG public key pkg and
// release label under time-server public key ts.
func (sc *Scheme) SplitEncrypt(rng io.Reader, pkg, ts core.ServerPublicKey, id, label string, msg []byte) (*SplitCiphertext, error) {
	r, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("idtre: sampling encryption randomness: %w", err)
	}
	k := sc.splitKey(r, pkg, ts, id, label)
	return &SplitCiphertext{
		U: sc.Set.B.ScalarMult(backend.G1, r, sc.Set.G),
		V: rohash.XOR(msg, sc.splitMask(k, len(msg))),
	}, nil
}

// splitKey computes ê(r·s₁G, H1(ID)) · ê(r·s₂G, H1(T)) with one shared
// final exponentiation.
func (sc *Scheme) splitKey(r *big.Int, pkg, ts core.ServerPublicKey, id, label string) backend.GT {
	b := sc.Set.B
	return b.PairProduct([]backend.PointPair{
		{P: b.ScalarMult(backend.G1, r, pkg.SG), Q: b.HashToG2(IdentityDomain, []byte(id))},
		{P: b.ScalarMult(backend.G1, r, ts.SG), Q: b.HashToG2(core.TimeDomain, []byte(label))},
	})
}

// SplitDecrypt combines the PKG-extracted identity key with the time
// server's update: K' = ê(U, D_ID + I_T).
//
// Note: the identity key must come from the PKG (s₁·H1(ID)) and the
// update from the time server (s₂·H1(T)); both authorities use the
// canonical generator.
func (sc *Scheme) SplitDecrypt(priv UserPrivateKey, upd core.KeyUpdate, ct *SplitCiphertext) ([]byte, error) {
	if ct == nil || !sc.Set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, core.ErrInvalidCiphertext
	}
	return rohash.XOR(ct.V, sc.splitMask(sc.decapsulate(ct.U, priv, upd), len(ct.V))), nil
}

// splitMask is the split scheme's H2 expander (own domain).
func (sc *Scheme) splitMask(k backend.GT, n int) []byte {
	return rohash.Expand("IDTRE-SPLIT-H2", sc.Set.B.GTBytes(k), n)
}
