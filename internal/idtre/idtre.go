// Package idtre implements ID-TRE, the identity-based timed release
// encryption scheme of paper §5.2 (the Chen et al. multiple-trust-
// authority construction): a receiver's public key is simply their
// identity string, their private key is s·H1(ID) extracted by the
// server, and decryption combines that private key with the time-bound
// key update:
//
//	K_E = H1(ID) + H1(T)
//	C   = ⟨rG, M ⊕ H2(ê(sG, K_E)^r)⟩
//	K_D = s·H1(ID) + s·H1(T) = s·K_E,   K' = ê(U, K_D)
//
// Compared with TRE (package core), ID-TRE removes the need for a CA but
// inherits the key-escrow weakness of all identity-based schemes: the
// server can decrypt everything (demonstrated by EscrowDecrypt and
// measured in experiment E1). Time-bound key updates are shared with
// TRE — the same server broadcast serves both schemes.
package idtre

import (
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// IdentityDomain is the H1 domain tag for identities; distinct from the
// time-label domain so the two oracles are independent.
const IdentityDomain = "identity"

// Scheme binds the ID-TRE algorithms to a parameter set.
type Scheme struct {
	Set *params.Set
}

// NewScheme returns an ID-TRE instance over the given parameters.
func NewScheme(set *params.Set) *Scheme { return &Scheme{Set: set} }

// UserPrivateKey is the extracted identity key s·H1(ID).
type UserPrivateKey struct {
	ID string
	D  curve.Point
}

// ExtractUserKey is the server-side private-key extraction. In the
// paper's exposition the time server doubles as the key-issuing
// authority; deployments may split the roles across two key pairs.
func (sc *Scheme) ExtractUserKey(server *core.ServerKeyPair, id string) UserPrivateKey {
	return UserPrivateKey{ID: id, D: server.Sign(sc.Set, IdentityDomain, []byte(id))}
}

// VerifyUserKey lets a user check an extracted key against the server's
// public key: ê(G, D) = ê(sG, H1(ID)).
func (sc *Scheme) VerifyUserKey(spub core.ServerPublicKey, priv UserPrivateKey) bool {
	return bls.Verify(sc.Set, spub, sc.Set.B.HashToG2(IdentityDomain, []byte(priv.ID)), priv.D)
}

// Ciphertext is the ID-TRE ciphertext ⟨U, V⟩.
type Ciphertext struct {
	U curve.Point
	V []byte
}

// Encrypt encrypts msg to (identity, release label) under the server's
// public key. No receiver certificate and no interaction is needed.
func (sc *Scheme) Encrypt(rng io.Reader, spub core.ServerPublicKey, id, label string, msg []byte) (*Ciphertext, error) {
	r, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("idtre: sampling encryption randomness: %w", err)
	}
	u, k := sc.encapsulate(spub, id, label, r)
	return &Ciphertext{U: u, V: rohash.XOR(msg, sc.mask(k, len(msg)))}, nil
}

// Decrypt combines the extracted identity key with the key update into
// K_D = s·(H1(ID)+H1(T)) and unmasks the message.
func (sc *Scheme) Decrypt(priv UserPrivateKey, upd core.KeyUpdate, ct *Ciphertext) ([]byte, error) {
	if ct == nil || !sc.Set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, core.ErrInvalidCiphertext
	}
	return rohash.XOR(ct.V, sc.mask(sc.decapsulate(ct.U, priv, upd), len(ct.V))), nil
}

// EscrowDecrypt demonstrates the inherent key escrow of identity-based
// schemes (§5.2, §3 footnote 6): the server reconstructs K_D for any
// (identity, label) pair from its own private key and decrypts without
// the receiver's involvement. TRE (package core) is immune to this —
// that contrast is the paper's motivation for the non-identity-based
// construction.
func (sc *Scheme) EscrowDecrypt(server *core.ServerKeyPair, id, label string, ct *Ciphertext) ([]byte, error) {
	priv := sc.ExtractUserKey(server, id)
	sch := core.NewScheme(sc.Set)
	return sc.Decrypt(priv, sch.IssueUpdate(server, label), ct)
}

// encapsulate computes (rG, ê(r·sG, H1(ID)+H1(T))); the pairing is
// taken on the pre-multiplied point r·sG so no G2 exponentiation is
// needed. Header and key halves are G1 points, K_E is a G2 point.
func (sc *Scheme) encapsulate(spub core.ServerPublicKey, id, label string, r *big.Int) (curve.Point, backend.GT) {
	b := sc.Set.B
	ke := b.Add(backend.G2,
		b.HashToG2(IdentityDomain, []byte(id)),
		b.HashToG2(core.TimeDomain, []byte(label)),
	)
	u := b.ScalarMult(backend.G1, r, spub.G)
	k := b.Pair(b.ScalarMult(backend.G1, r, spub.SG), ke)
	return u, k
}

// decapsulate computes K' = ê(U, K_D) for K_D = D_ID + I_T ∈ G2.
func (sc *Scheme) decapsulate(u curve.Point, priv UserPrivateKey, upd core.KeyUpdate) backend.GT {
	return sc.Set.B.Pair(u, sc.Set.B.Add(backend.G2, priv.D, upd.Point))
}

// mask is the scheme's H2 expander over the pairing value.
func (sc *Scheme) mask(k backend.GT, n int) []byte {
	return rohash.Expand("IDTRE-H2", sc.Set.B.GTBytes(k), n)
}
