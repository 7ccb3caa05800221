// Package hybrid implements the generic PKE + IBE construction of paper
// footnote 3 — the strawman the paper's efficiency claim is measured
// against (experiment E1):
//
//	"We could use a public key encryption scheme to encrypt a sub-key
//	 K₁ and use an identity based encryption scheme to encrypt another
//	 sub-key K₂. These two sub-keys are then combined to feed into a
//	 symmetric key encryption scheme for encrypting the actual
//	 messages."
//
// The PKE is hashed ElGamal over G1 (no pairing needed), the IBE is
// Boneh–Franklin BasicIdent with the release label as the identity, and
// the DEM is the same random-oracle stream used elsewhere. Decryption
// needs the receiver's ElGamal key AND the IBE private key for the
// release label — which the time server publishes as s·H1(T) when T
// arrives — so it achieves the same timed-release functionality as TRE
// at the cost of a second group element and a second wrapped sub-key in
// every ciphertext.
package hybrid

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/baseline/bfibe"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// subKeyLen is the length of each wrapped sub-key.
const subKeyLen = 32

// Scheme binds the hybrid construction to a parameter set.
type Scheme struct {
	Set *params.Set
	ibe *bfibe.Scheme
}

// NewScheme returns a hybrid PKE+IBE instance.
func NewScheme(set *params.Set) *Scheme {
	return &Scheme{Set: set, ibe: bfibe.NewScheme(set)}
}

// ReceiverKey is a hashed-ElGamal key pair over G1.
type ReceiverKey struct {
	B   *big.Int    // private
	Pub curve.Point // b·G
}

// ReceiverKeyGen creates the receiver's PKE key pair.
func (sc *Scheme) ReceiverKeyGen(rng io.Reader) (*ReceiverKey, error) {
	b, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return &ReceiverKey{B: b, Pub: sc.Set.B.ScalarMult(backend.G1, b, sc.Set.G)}, nil
}

// Ciphertext carries both encapsulations and the DEM body:
// two group elements + two wrapped 32-byte sub-keys + |M| — roughly
// double the TRE ciphertext overhead (the E1 measurement).
type Ciphertext struct {
	U1 curve.Point // r₁·G        (ElGamal)
	W1 []byte      // K₁ ⊕ H(r₁·bG)
	U2 curve.Point // r₂·G        (IBE)
	W2 []byte      // K₂ ⊕ H2(ê(r₂·sG, H1(T)))
	V  []byte      // M ⊕ Expand(K₁ ‖ K₂)
}

// Encrypt produces a timed-release ciphertext for (receiver, release
// label) under the time server's IBE master public key.
func (sc *Scheme) Encrypt(rng io.Reader, server bfibe.MasterPublicKey, receiver curve.Point, label string, msg []byte) (*Ciphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	b := sc.Set.B

	k1 := make([]byte, subKeyLen)
	k2 := make([]byte, subKeyLen)
	if _, err := io.ReadFull(rng, k1); err != nil {
		return nil, fmt.Errorf("hybrid: sampling sub-key: %w", err)
	}
	if _, err := io.ReadFull(rng, k2); err != nil {
		return nil, fmt.Errorf("hybrid: sampling sub-key: %w", err)
	}

	// PKE half: hashed ElGamal.
	r1, err := b.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	u1 := b.ScalarMult(backend.G1, r1, sc.Set.G)
	w1 := rohash.XOR(k1, sc.pkeMask(b.ScalarMult(backend.G1, r1, receiver)))

	// IBE half: BasicIdent with the release label as identity.
	ibeCT, err := sc.ibe.Encrypt(rng, server, label, k2)
	if err != nil {
		return nil, err
	}

	return &Ciphertext{
		U1: u1, W1: w1,
		U2: ibeCT.U, W2: ibeCT.V,
		V: rohash.XOR(msg, demMask(k1, k2, len(msg))),
	}, nil
}

// Decrypt combines the receiver's ElGamal key with the time server's
// published IBE key for the release label.
func (sc *Scheme) Decrypt(receiver *ReceiverKey, labelKey bfibe.PrivateKey, ct *Ciphertext) ([]byte, error) {
	b := sc.Set.B
	if ct == nil || !b.IsOnCurve(backend.G1, ct.U1) || !b.IsOnCurve(backend.G1, ct.U2) ||
		len(ct.W1) != subKeyLen || len(ct.W2) != subKeyLen {
		return nil, fmt.Errorf("hybrid: malformed ciphertext")
	}
	k1 := rohash.XOR(ct.W1, sc.pkeMask(b.ScalarMult(backend.G1, receiver.B, ct.U1)))
	k2, err := sc.ibe.Decrypt(labelKey, &bfibe.Ciphertext{U: ct.U2, V: ct.W2})
	if err != nil {
		return nil, err
	}
	return rohash.XOR(ct.V, demMask(k1, k2, len(ct.V))), nil
}

// Size returns the wire size of the ciphertext for a given message
// length (used by the E1 size comparison).
func (sc *Scheme) Size(msgLen int) int {
	return 2*sc.Set.B.PointLen(backend.G1) + 2*subKeyLen + msgLen
}

// pkeMask hashes the ElGamal shared point r₁·bG into the K₁ wrap.
func (sc *Scheme) pkeMask(shared curve.Point) []byte {
	return rohash.Expand("HYB-PKE", sc.Set.B.AppendPoint(nil, backend.G1, shared), subKeyLen)
}

// demMask combines the sub-keys into the DEM keystream.
func demMask(k1, k2 []byte, n int) []byte {
	return rohash.Expand("HYB-DEM", rohash.Concat(k1, k2), n)
}
