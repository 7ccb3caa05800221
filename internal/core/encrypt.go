package core

import (
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// Ciphertext is the basic TRE ciphertext C = ⟨U, V⟩ = ⟨rG, M ⊕ H2(K)⟩
// of §5.1. Deliberately, it carries neither the release label nor any
// party identity: the paper's privacy goals include hiding the release
// time, so applications that want to transmit the label do so in an
// outer envelope (package wire).
type Ciphertext struct {
	U curve.Point
	V []byte
}

// Encrypt implements §5.1 Encryption: verify the receiver key's
// well-formedness, pick r ∈ Z_q^*, compute K = ê(r·asG, H1(T)) and
// return ⟨rG, M ⊕ H2(K)⟩. This basic scheme is one-way/CPA-secure (the
// paper presents it pre-Fujisaki-Okamoto); use EncryptCCA for
// chosen-ciphertext security.
func (sc *Scheme) Encrypt(rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) (*Ciphertext, error) {
	if !sc.VerifyUserPublicKey(spub, upub) {
		return nil, ErrInvalidPublicKey
	}
	r, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("tre: sampling encryption randomness: %w", err)
	}
	u, k, err := sc.encapsulate(spub, upub, label, r)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{U: u, V: rohash.XOR(msg, sc.maskH2(k, len(msg)))}, nil
}

// Decrypt implements §5.1 Decryption: K' = ê(U, I_T)^a, M = V ⊕ H2(K').
// The caller should have verified the update against the server public
// key (VerifyUpdate); the basic scheme cannot itself detect a wrong or
// forged update — it simply produces an unrelated bitstring, exactly as
// in the paper. Use the CCA variants for integrity.
func (sc *Scheme) Decrypt(upriv *UserKeyPair, upd KeyUpdate, ct *Ciphertext) ([]byte, error) {
	if ct == nil || !sc.Set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, ErrInvalidCiphertext
	}
	k := sc.decapsulate(upriv, upd, ct.U)
	return rohash.XOR(ct.V, sc.maskH2(k, len(ct.V))), nil
}

// encapsulate computes (U, K) = (rG, ê(r·asG, H1(label))). Computing the
// pairing on the pre-multiplied point r·asG replaces a G2 exponentiation
// with a (cheaper) G1 scalar multiplication.
//
// It also applies the sender-side defence of §5.1 item 6: a cheating
// server could have chosen its generator as G = H1(T*) for a label T*
// it wants to eavesdrop; if the chosen label hashes onto the server's
// generator, encryption refuses ("there should not be a large
// difference, from the sender's point of view, between using T and
// using T plus one second").
func (sc *Scheme) encapsulate(spub ServerPublicKey, upub UserPublicKey, label string, r *big.Int) (curve.Point, backend.GT, error) {
	b := sc.Set.B
	h := sc.hashLabel(label)
	if !sc.safePoint(spub, h) {
		return curve.Point{}, nil, ErrUnsafeLabel
	}
	u := sc.mulG(spub.G, r)
	sc.pairings.Inc()
	k := b.Pair(b.ScalarMult(backend.G1, r, upub.ASG), h)
	return u, k, nil
}

// SafeLabel reports whether a release label avoids the §5.1 item 6
// generator collision for this server. Encrypt and friends check it
// automatically; senders picking labels programmatically can use it to
// perturb a label (e.g. add one second) instead of failing. On an
// asymmetric backend the check is vacuously true: H1 maps into G2 and
// the server generator lives in G1, so no label can hash onto it.
func (sc *Scheme) SafeLabel(spub ServerPublicKey, label string) bool {
	return sc.Set.Asymmetric() || sc.safePoint(spub, sc.hashLabel(label))
}

// safePoint is SafeLabel on the already-hashed label h = H1(label), so
// an encryption hashes its label once.
func (sc *Scheme) safePoint(spub ServerPublicKey, h curve.Point) bool {
	return sc.Set.Asymmetric() || !sc.Set.B.Equal(backend.G2, h, spub.G)
}

// decapsulate computes K' = ê(U, I_T)^a as ê(a·U, I_T).
func (sc *Scheme) decapsulate(upriv *UserKeyPair, upd KeyUpdate, u curve.Point) backend.GT {
	b := sc.Set.B
	sc.pairings.Inc()
	return b.Pair(b.ScalarMult(backend.G1, upriv.A, u), upd.Point)
}

// maskH2 is the paper's H2: GT → {0,1}^n, instantiated as a
// domain-separated SHA-256 expander over the canonical encoding of K.
func (sc *Scheme) maskH2(k backend.GT, n int) []byte {
	return rohash.Expand("TRE-H2", sc.Set.B.GTBytes(k), n)
}
