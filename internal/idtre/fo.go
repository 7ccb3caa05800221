package idtre

import (
	"crypto/rand"
	"fmt"
	"io"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// seedLen is the Fujisaki-Okamoto seed length.
const seedLen = 32

// CCACiphertext is the FO-transformed ID-TRE ciphertext (the paper
// applies the same transform to both constructions).
type CCACiphertext struct {
	U curve.Point // rG with r = H3(σ ‖ M)
	W []byte      // σ ⊕ H2(K)
	V []byte      // M ⊕ H4(σ)
}

// EncryptCCA encrypts msg to (identity, label) with chosen-ciphertext
// security via the Fujisaki–Okamoto transform.
func (sc *Scheme) EncryptCCA(rng io.Reader, spub core.ServerPublicKey, id, label string, msg []byte) (*CCACiphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	sigma := make([]byte, seedLen)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("idtre: sampling FO seed: %w", err)
	}
	r := rohash.ToScalarNonZero("IDTRE-H3", rohash.Concat(sigma, msg), sc.Set.Q)
	u, k := sc.encapsulate(spub, id, label, r)
	return &CCACiphertext{
		U: u,
		W: rohash.XOR(sigma, sc.mask(k, seedLen)),
		V: rohash.XOR(msg, rohash.Expand("IDTRE-H4", sigma, len(msg))),
	}, nil
}

// DecryptCCA decrypts and runs the FO re-encryption check, rejecting
// tampered ciphertexts and wrong updates.
func (sc *Scheme) DecryptCCA(spub core.ServerPublicKey, priv UserPrivateKey, upd core.KeyUpdate, ct *CCACiphertext) ([]byte, error) {
	if ct == nil || len(ct.W) != seedLen || !sc.Set.B.IsOnCurve(backend.G1, ct.U) || ct.U.IsInfinity() {
		return nil, core.ErrInvalidCiphertext
	}
	k := sc.decapsulate(ct.U, priv, upd)
	sigma := rohash.XOR(ct.W, sc.mask(k, seedLen))
	msg := rohash.XOR(ct.V, rohash.Expand("IDTRE-H4", sigma, len(ct.V)))
	r := rohash.ToScalarNonZero("IDTRE-H3", rohash.Concat(sigma, msg), sc.Set.Q)
	if !sc.Set.B.Equal(backend.G1, ct.U, sc.Set.B.ScalarMult(backend.G1, r, spub.G)) {
		return nil, core.ErrAuthFailed
	}
	return msg, nil
}
