package core

import (
	"fmt"
	"io"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// MultiRecipientCiphertext addresses one message to many receivers with
// a single shared header point U = rG: the press-release workload of
// §1. Each recipient gets their own mask slot (their pairing value
// K_i = ê(r·a_i·sG, H1(T)) already differs per key, so reusing r across
// recipients is safe in the random-oracle analysis — the masks are
// independent oracle outputs).
//
// Versus n independent ciphertexts this saves n−1 header points on the
// wire and n−1 of the rG scalar multiplications at the sender; the n
// pairings remain (one per recipient key).
type MultiRecipientCiphertext struct {
	U  curve.Point
	Vs [][]byte // one masked copy per recipient, in recipient order
}

// EncryptMulti encrypts msg to every recipient for one release label.
// All recipient keys are well-formedness-checked; order is preserved so
// recipient i decrypts slot i.
func (sc *Scheme) EncryptMulti(rng io.Reader, spub ServerPublicKey, recipients []UserPublicKey, label string, msg []byte) (*MultiRecipientCiphertext, error) {
	if len(recipients) == 0 {
		return nil, fmt.Errorf("tre: no recipients")
	}
	for i, upub := range recipients {
		if !sc.VerifyUserPublicKey(spub, upub) {
			return nil, fmt.Errorf("%w (recipient %d)", ErrInvalidPublicKey, i)
		}
	}
	b := sc.Set.B
	h := sc.hashLabel(label)
	if !sc.safePoint(spub, h) {
		return nil, ErrUnsafeLabel
	}
	r, err := b.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("tre: sampling encryption randomness: %w", err)
	}
	ct := &MultiRecipientCiphertext{
		U:  sc.mulG(spub.G, r),
		Vs: make([][]byte, len(recipients)),
	}
	for i, upub := range recipients {
		k := b.Pair(b.ScalarMult(backend.G1, r, upub.ASG), h)
		ct.Vs[i] = rohash.XOR(msg, sc.maskH2(k, len(msg)))
	}
	return ct, nil
}

// DecryptMulti opens recipient slot `index` with that recipient's
// private key and the label's key update.
func (sc *Scheme) DecryptMulti(upriv *UserKeyPair, upd KeyUpdate, ct *MultiRecipientCiphertext, index int) ([]byte, error) {
	if ct == nil || index < 0 || index >= len(ct.Vs) || !sc.Set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, ErrInvalidCiphertext
	}
	k := sc.decapsulate(upriv, upd, ct.U)
	return rohash.XOR(ct.Vs[index], sc.maskH2(k, len(ct.Vs[index]))), nil
}

// Size returns the wire size of the multi-recipient ciphertext for the
// given message length: one point plus n masked copies.
func (sc *Scheme) MultiSize(nRecipients, msgLen int) int {
	return sc.Set.B.PointLen(backend.G1) + nRecipients*msgLen
}
