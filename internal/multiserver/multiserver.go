// Package multiserver implements the multiple-time-server extension of
// paper §5.3.5: to decrypt, the receiver needs the time-bound key
// updates of ALL N servers (plus their own private key), so early
// release requires colluding with every server the sender chose.
//
// Each server i has its own generator Gᵢ and key pair (sᵢ, sᵢGᵢ). The
// receiver publishes a combined key a·Σ sᵢGᵢ alongside the certified aG;
// the sender verifies it with one pairing equation and produces
//
//	C = ⟨rG₁, …, rG_N, M ⊕ H2(K)⟩,  K = ê(r·a·Σ sᵢGᵢ, H1(T))
//	                                  = Π ê(Gᵢ, H1(T))^{r·a·sᵢ}.
//
// Decryption multiplies per-server pairings ê(a·rGᵢ, sᵢH1(T)); the
// implementation shares one final exponentiation across all N Miller
// loops.
//
// The construction is Type-1 only. Encryption and decryption pair a G1
// header with a G2 update like every other scheme here, but the
// sender's check on the receiver's combined key,
//
//	ê(aG, Σ sᵢGᵢ) = ê(G, a·Σ sᵢGᵢ),
//
// puts two G1 points into one pairing: every sᵢGᵢ is over its own
// generator Gᵢ ∈ G1, and no G2 mirror of it exists in the published
// keys. Without that check Encrypt would trust an unverified key, so
// key generation, Encrypt and Decrypt return backend.ErrSymmetricOnly
// on an asymmetric set and VerifyUserPublicKey reports false.
package multiserver

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
	"timedrelease/internal/wire"
)

// ErrUpdateCount reports a decryption attempt with a different number
// of key updates than the ciphertext has server headers — the N-of-N
// construction needs exactly one update per chosen server.
var ErrUpdateCount = errors.New("multiserver: update count does not match server headers")

// Scheme binds the multi-server algorithms to a parameter set.
type Scheme struct {
	Set *params.Set
}

// NewScheme returns a multi-server TRE instance.
func NewScheme(set *params.Set) *Scheme { return &Scheme{Set: set} }

// ServerGroup is the ordered list of time servers chosen by the sender.
type ServerGroup []core.ServerPublicKey

// SumSG returns Σ sᵢGᵢ, the aggregate the receiver's combined key is
// built from.
func (sc *Scheme) SumSG(servers ServerGroup) curve.Point {
	acc := sc.Set.B.Infinity(backend.G1)
	for _, s := range servers {
		acc = sc.Set.B.Add(backend.G1, acc, s.SG)
	}
	return acc
}

// UserPublicKey is the receiver's key for a specific server group: the
// CA-certified aG plus the combined point a·Σ sᵢGᵢ.
type UserPublicKey struct {
	AG       curve.Point // a·G over the canonical generator (certified)
	Combined curve.Point // a·Σ sᵢGᵢ
}

// UserKeyPair holds the private scalar and the group-specific public
// key.
type UserKeyPair struct {
	A   *big.Int
	Pub UserPublicKey
}

// UserKeyGen generates a fresh key pair for the server group.
func (sc *Scheme) UserKeyGen(servers ServerGroup, rng io.Reader) (*UserKeyPair, error) {
	a, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return sc.UserKeyFromScalar(servers, a)
}

// UserKeyFromScalar derives the group key for an existing private
// scalar — this is how a receiver answers a sender's request to use a
// particular server group without changing identity keys.
func (sc *Scheme) UserKeyFromScalar(servers ServerGroup, a *big.Int) (*UserKeyPair, error) {
	if sc.Set.Asymmetric() {
		// The combined key a·Σ sᵢGᵢ is only ever checked by
		// ê(aG, Σ sᵢGᵢ) = ê(G, a·Σ sᵢGᵢ), a pairing of two G1 points.
		return nil, backend.ErrSymmetricOnly
	}
	if len(servers) == 0 {
		return nil, errors.New("multiserver: empty server group")
	}
	if a.Sign() <= 0 || a.Cmp(sc.Set.Q) >= 0 {
		return nil, errors.New("multiserver: private scalar out of range [1, q-1]")
	}
	b := sc.Set.B
	return &UserKeyPair{
		A: new(big.Int).Set(a),
		Pub: UserPublicKey{
			AG:       b.ScalarMult(backend.G1, a, sc.Set.G),
			Combined: b.ScalarMult(backend.G1, a, sc.SumSG(servers)),
		},
	}, nil
}

// VerifyUserPublicKey is the sender's "same trick as above" check
// (§5.3.5): ê(aG, Σ sᵢGᵢ) = ê(G, a·Σ sᵢGᵢ), with aG over the canonical
// generator. Both pairings take two G1 points, so on an asymmetric set
// the equation cannot be evaluated and no key verifies.
func (sc *Scheme) VerifyUserPublicKey(servers ServerGroup, upub UserPublicKey) bool {
	if sc.Set.Asymmetric() || len(servers) == 0 || upub.AG.IsInfinity() || upub.Combined.IsInfinity() {
		return false
	}
	b := sc.Set.B
	if !b.InSubgroup(backend.G1, upub.AG) || !b.InSubgroup(backend.G1, upub.Combined) {
		return false
	}
	return b.SamePairing(upub.AG, sc.SumSG(servers), sc.Set.G, upub.Combined)
}

// Ciphertext carries one header point rGᵢ per server plus the masked
// message.
type Ciphertext struct {
	Us []curve.Point // rG₁ … rG_N
	V  []byte
}

// MarshalCiphertext encodes a multi-server ciphertext: a u16 header
// count, the header points, and the payload.
func (sc *Scheme) MarshalCiphertext(ct *Ciphertext) []byte {
	out := wire.AppendU16(nil, len(ct.Us))
	for _, u := range ct.Us {
		out = sc.Set.B.AppendPoint(out, backend.G1, u)
	}
	return wire.AppendBytes32(out, ct.V)
}

// UnmarshalCiphertext decodes a multi-server ciphertext. On an
// asymmetric set it returns backend.ErrSymmetricOnly rather than an
// object no scheme can consume.
func (sc *Scheme) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	if sc.Set.Asymmetric() {
		return nil, backend.ErrSymmetricOnly
	}
	r := wire.NewReader(sc.Set, data)
	n, err := r.U16()
	if err != nil {
		return nil, fmt.Errorf("multiserver: header count: %w", err)
	}
	if n == 0 {
		return nil, errors.New("multiserver: ciphertext needs at least one header")
	}
	us := make([]curve.Point, n)
	for i := range us {
		if us[i], err = r.Point(backend.G1); err != nil {
			return nil, fmt.Errorf("multiserver: header %d: %w", i, err)
		}
	}
	v, err := r.Bytes32()
	if err != nil {
		return nil, fmt.Errorf("multiserver: V: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &Ciphertext{Us: us, V: v}, nil
}

// Encrypt verifies the receiver's combined key and produces the
// N-header ciphertext.
func (sc *Scheme) Encrypt(rng io.Reader, servers ServerGroup, upub UserPublicKey, label string, msg []byte) (*Ciphertext, error) {
	if sc.Set.Asymmetric() {
		// Encrypting means trusting upub, and VerifyUserPublicKey's
		// ê(aG, Σ sᵢGᵢ) = ê(G, a·Σ sᵢGᵢ) needs a Type-1 pairing.
		return nil, backend.ErrSymmetricOnly
	}
	if !sc.VerifyUserPublicKey(servers, upub) {
		return nil, core.ErrInvalidPublicKey
	}
	b := sc.Set.B
	r, err := b.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("multiserver: sampling encryption randomness: %w", err)
	}
	us := make([]curve.Point, len(servers))
	for i, s := range servers {
		us[i] = b.ScalarMult(backend.G1, r, s.G)
	}
	h := b.HashToG2(core.TimeDomain, []byte(label))
	k := b.Pair(b.ScalarMult(backend.G1, r, upub.Combined), h)
	return &Ciphertext{Us: us, V: rohash.XOR(msg, sc.mask(k, len(msg)))}, nil
}

// Decrypt recovers the message from the receiver's private scalar and
// one key update per server (all for the same label, in server order).
// The N pairings share a single final exponentiation.
func (sc *Scheme) Decrypt(upriv *UserKeyPair, updates []core.KeyUpdate, ct *Ciphertext) ([]byte, error) {
	k, err := sc.decapsulate(upriv, updates, ct)
	if err != nil {
		return nil, err
	}
	return rohash.XOR(ct.V, sc.mask(k, len(ct.V))), nil
}

// decapsulate computes K = Π ê(a·Uᵢ, I_Tᵢ) as one pairing product.
func (sc *Scheme) decapsulate(upriv *UserKeyPair, updates []core.KeyUpdate, ct *Ciphertext) (backend.GT, error) {
	if sc.Set.Asymmetric() {
		// Nothing Encrypt refuses to produce is worth opening: the key
		// pair behind upriv only exists where ê(aG, Σ sᵢGᵢ) does.
		return nil, backend.ErrSymmetricOnly
	}
	if ct == nil || len(ct.Us) == 0 {
		return nil, core.ErrInvalidCiphertext
	}
	if len(updates) != len(ct.Us) {
		return nil, fmt.Errorf("%w: %d updates for %d headers", ErrUpdateCount, len(updates), len(ct.Us))
	}
	label := updates[0].Label
	b := sc.Set.B
	pairs := make([]backend.PointPair, 0, len(ct.Us))
	for i, u := range ct.Us {
		if !b.IsOnCurve(backend.G1, u) {
			return nil, core.ErrInvalidCiphertext
		}
		if updates[i].Label != label {
			return nil, core.ErrLabelMismatch
		}
		pairs = append(pairs, backend.PointPair{P: b.ScalarMult(backend.G1, upriv.A, u), Q: updates[i].Point})
	}
	return b.PairProduct(pairs), nil
}

// mask is the scheme's H2 expander.
func (sc *Scheme) mask(k backend.GT, n int) []byte {
	return rohash.Expand("MSTRE-H2", sc.Set.B.GTBytes(k), n)
}
