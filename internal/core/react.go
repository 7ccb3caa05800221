package core

import (
	"crypto/rand"
	"fmt"
	"io"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// REACTCiphertext is the Okamoto–Pointcheval REACT-transformed
// ciphertext, the alternative CCA conversion the paper mentions
// ("Alternatively, the REACT conversion ... could be used instead"):
//
//	C = ⟨ rG, R ⊕ H2(K), M ⊕ G(R), H(R ‖ M ‖ c1 ‖ c2 ‖ c3) ⟩
//
// where R is a fresh random secret. Unlike FO, decryption needs no
// re-encryption — only one hash check — which makes REACT decryption
// cheaper (measured in experiment E1).
type REACTCiphertext struct {
	U   curve.Point // c1 = rG
	W   []byte      // c2 = R ⊕ H2(K), seedLen bytes
	V   []byte      // c3 = M ⊕ G(R)
	Tag []byte      // c4 = H(R ‖ M ‖ c1 ‖ c2 ‖ c3), seedLen bytes
}

// EncryptREACT encrypts msg under the REACT transform.
func (sc *Scheme) EncryptREACT(rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) (*REACTCiphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	secret := make([]byte, seedLen)
	if _, err := io.ReadFull(rng, secret); err != nil {
		return nil, fmt.Errorf("tre: sampling REACT secret: %w", err)
	}
	r, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("tre: sampling encryption randomness: %w", err)
	}
	u, k, err := sc.encapsulateChecked(spub, upub, label, r)
	if err != nil {
		return nil, err
	}
	w := rohash.XOR(secret, sc.maskH2(k, seedLen))
	v := rohash.XOR(msg, rohash.Expand("TRE-REACT-G", secret, len(msg)))
	tag := sc.reactTag(secret, msg, u, w, v)
	return &REACTCiphertext{U: u, W: w, V: v, Tag: tag}, nil
}

// DecryptREACT recovers R and M, then authenticates the whole ciphertext
// with the REACT hash check.
func (sc *Scheme) DecryptREACT(upriv *UserKeyPair, upd KeyUpdate, ct *REACTCiphertext) ([]byte, error) {
	if ct == nil || len(ct.W) != seedLen || len(ct.Tag) != seedLen ||
		!sc.Set.B.IsOnCurve(backend.G1, ct.U) || ct.U.IsInfinity() {
		return nil, ErrInvalidCiphertext
	}
	k := sc.decapsulate(upriv, upd, ct.U)
	secret := rohash.XOR(ct.W, sc.maskH2(k, seedLen))
	msg := rohash.XOR(ct.V, rohash.Expand("TRE-REACT-G", secret, len(ct.V)))
	if !constEq(ct.Tag, sc.reactTag(secret, msg, ct.U, ct.W, ct.V)) {
		return nil, ErrAuthFailed
	}
	return msg, nil
}

// reactTag computes c4 = H(R ‖ M ‖ c1 ‖ c2 ‖ c3) with unambiguous
// length-prefixed framing.
func (sc *Scheme) reactTag(secret, msg []byte, u curve.Point, w, v []byte) []byte {
	input := rohash.Concat(secret, msg, sc.Set.B.AppendPoint(nil, backend.G1, u), w, v)
	return rohash.Expand("TRE-REACT-H", input, seedLen)
}
