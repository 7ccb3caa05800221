package core

import (
	"crypto/rand"
	"crypto/subtle"
	"fmt"
	"io"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// seedLen is the length of the Fujisaki-Okamoto seed σ and of the REACT
// ephemeral secret R.
const seedLen = 32

// CCACiphertext is the Fujisaki–Okamoto-transformed ciphertext
//
//	C = ⟨ rG, σ ⊕ H2(K), M ⊕ H4(σ) ⟩  with  r = H3(σ ‖ M)
//
// making the basic scheme chosen-ciphertext secure in the random-oracle
// model, as §5 prescribes ("the Fujisaki-Okamoto transform can be
// applied to our schemes to obtain chosen-ciphertext secure schemes").
type CCACiphertext struct {
	U curve.Point // rG, r derived from (σ, M)
	W []byte      // σ ⊕ H2(K), seedLen bytes
	V []byte      // M ⊕ H4(σ)
}

// EncryptCCA encrypts msg under the Fujisaki–Okamoto transform.
func (sc *Scheme) EncryptCCA(rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) (*CCACiphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	sigma := make([]byte, seedLen)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("tre: sampling FO seed: %w", err)
	}
	r := rohash.ToScalarNonZero("TRE-H3", rohash.Concat(sigma, msg), sc.Set.Q)
	u, k, err := sc.encapsulateChecked(spub, upub, label, r)
	if err != nil {
		return nil, err
	}
	return &CCACiphertext{
		U: u,
		W: rohash.XOR(sigma, sc.maskH2(k, seedLen)),
		V: rohash.XOR(msg, rohash.Expand("TRE-H4", sigma, len(msg))),
	}, nil
}

// DecryptCCA decrypts and authenticates an FO ciphertext: it recovers
// (σ, M), recomputes r = H3(σ ‖ M) and rejects unless U = rG — the
// re-encryption check that defeats chosen-ciphertext attacks and also
// catches decryption under a wrong or forged key update.
func (sc *Scheme) DecryptCCA(spub ServerPublicKey, upriv *UserKeyPair, upd KeyUpdate, ct *CCACiphertext) ([]byte, error) {
	if ct == nil || len(ct.W) != seedLen || !sc.Set.B.IsOnCurve(backend.G1, ct.U) || ct.U.IsInfinity() {
		return nil, ErrInvalidCiphertext
	}
	k := sc.decapsulate(upriv, upd, ct.U)
	return sc.foOpen(spub, k, ct)
}

// foOpen completes FO decryption from the recovered pairing value:
// unmask σ and M, recompute r, and run the re-encryption check.
func (sc *Scheme) foOpen(spub ServerPublicKey, k backend.GT, ct *CCACiphertext) ([]byte, error) {
	sigma := rohash.XOR(ct.W, sc.maskH2(k, seedLen))
	msg := rohash.XOR(ct.V, rohash.Expand("TRE-H4", sigma, len(ct.V)))
	r := rohash.ToScalarNonZero("TRE-H3", rohash.Concat(sigma, msg), sc.Set.Q)
	if b := sc.Set.B; !b.Equal(backend.G1, ct.U, b.ScalarMult(backend.G1, r, spub.G)) {
		return nil, ErrAuthFailed
	}
	return msg, nil
}

// constEq is constant-time byte-slice equality.
func constEq(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}
