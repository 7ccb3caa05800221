package policylock

import (
	"crypto/rand"
	"crypto/subtle"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// CCACiphertext is the Fujisaki–Okamoto-style policy-lock ciphertext:
// all clause randomness is derived from (κ, M, policy, clause index), so
// a decryptor can RE-ENCRYPT the whole ciphertext from what it recovers
// and reject any tampering — header substitution between clauses, policy
// rewrites, payload flips, everything.
//
//	rⱼ = H3(κ ‖ M ‖ policy ‖ j)
//	headerⱼ = ⟨rⱼ·G, κ ⊕ H2(Kⱼ)⟩,  Kⱼ = ê(rⱼ·asG, Σ H1(cᵢ))
//	V = M ⊕ H4(κ)
type CCACiphertext struct {
	Policy  Policy
	Headers []ClauseHeader
	V       []byte
}

// EncryptCCA locks msg under the policy with chosen-ciphertext
// integrity.
func (sc *Scheme) EncryptCCA(rng io.Reader, wpub core.ServerPublicKey, upub core.UserPublicKey, policy Policy, msg []byte) (*CCACiphertext, error) {
	if err := policy.validate(); err != nil {
		return nil, err
	}
	tre := core.NewScheme(sc.Set)
	if !tre.VerifyUserPublicKey(wpub, upub) {
		return nil, core.ErrInvalidPublicKey
	}
	if rng == nil {
		rng = rand.Reader
	}
	kappa := make([]byte, keyLen)
	if _, err := io.ReadFull(rng, kappa); err != nil {
		return nil, fmt.Errorf("policylock: sampling message key: %w", err)
	}
	ct := &CCACiphertext{
		Policy: policy,
		V:      rohash.XOR(msg, rohash.Expand("PL-FO-DEM", kappa, len(msg))),
	}
	ct.Headers = sc.foHeaders(kappa, ct.V, wpub, upub, policy)
	return ct, nil
}

// foHeaders deterministically derives every clause header from
// (κ, masked payload, policy). Deriving from the MASKED payload V
// rather than M lets the decryptor recheck headers before trusting the
// recovered plaintext, and binds the headers to the exact ciphertext
// body.
func (sc *Scheme) foHeaders(kappa, v []byte, wpub core.ServerPublicKey, upub core.UserPublicKey, policy Policy) []ClauseHeader {
	headers := make([]ClauseHeader, 0, len(policy.Clauses))
	for j, clause := range policy.Clauses {
		r := sc.foClauseScalar(kappa, v, policy, j)
		headers = append(headers, sc.clauseHeader(r, kappa, wpub, upub, clause))
	}
	return headers
}

// DecryptCCA opens a clause the attestations satisfy, then re-derives
// every header from the recovered κ and rejects on any mismatch. The
// decryptor needs their own public key for the recheck; it is taken
// from upriv.Pub.
func (sc *Scheme) DecryptCCA(wpub core.ServerPublicKey, upriv *core.UserKeyPair, atts []Attestation, ct *CCACiphertext) ([]byte, error) {
	if ct == nil || len(ct.Headers) != len(ct.Policy.Clauses) {
		return nil, core.ErrInvalidCiphertext
	}
	have := make(map[string]curve.Point, len(atts))
	for _, a := range atts {
		have[a.Condition] = a.Point
	}
	for j, clause := range ct.Policy.Clauses {
		agg, ok := sc.aggregateClause(clause, have)
		if !ok {
			continue
		}
		kappa, err := sc.unwrap(upriv, ct.Headers[j], agg)
		if err != nil {
			return nil, err
		}
		if !sc.foRecheck(kappa, wpub, upriv.Pub, ct) {
			return nil, core.ErrAuthFailed
		}
		return rohash.XOR(ct.V, rohash.Expand("PL-FO-DEM", kappa, len(ct.V))), nil
	}
	return nil, ErrPolicyUnsatisfied
}

// foRecheck re-encrypts all headers from κ and compares them (points
// exactly, wraps in constant time).
func (sc *Scheme) foRecheck(kappa []byte, wpub core.ServerPublicKey, upub core.UserPublicKey, ct *CCACiphertext) bool {
	want := sc.foHeaders(kappa, ct.V, wpub, upub, ct.Policy)
	if len(want) != len(ct.Headers) {
		return false
	}
	ok := true
	for j := range want {
		if !sc.Set.B.Equal(backend.G1, want[j].U, ct.Headers[j].U) {
			ok = false
		}
		if subtle.ConstantTimeCompare(want[j].Wrap, ct.Headers[j].Wrap) != 1 {
			ok = false
		}
	}
	return ok
}

// foClauseScalar derives rⱼ = H3(κ ‖ V ‖ policy ‖ j) ∈ Z_q^*.
func (sc *Scheme) foClauseScalar(kappa, v []byte, policy Policy, j int) *big.Int {
	jb := []byte{byte(j >> 8), byte(j)}
	input := rohash.Concat(kappa, v, []byte(policy.String()), jb)
	return rohash.ToScalarNonZero("PL-FO-H3", input, sc.Set.Q)
}
