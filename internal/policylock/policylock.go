// Package policylock implements the generalisation sketched in paper
// §5.3.2: the time server becomes a witness that signs arbitrary
// condition strings ("It is an emergency", "Task X is complete"), and a
// ciphertext can only be opened by the designated receiver once the
// witness has attested the conditions the sender chose.
//
// Timed release is the special case of a single condition "it is now T".
// This package extends the idea to monotone policies in disjunctive
// normal form — an OR over AND-clauses:
//
//   - an AND clause is satisfied by aggregating the attestations of all
//     its conditions into one point Σ s·H1(cᵢ) = s·Σ H1(cᵢ) (same-key
//     BLS aggregation), which plugs into the pairing exactly like a
//     single key update;
//   - OR is handled with one ciphertext header per clause, all
//     encapsulating the same message key.
//
// Clause headers are G1 points; hashed conditions, their per-clause
// sums and the attestations are G2 points — the same typing as a
// ciphertext header and a key update in package core.
package policylock

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strings"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// ConditionDomain is the H1 domain tag for witness conditions, distinct
// from time labels so a time update can never double as an attestation.
const ConditionDomain = "policy-condition"

// Scheme binds the policy-lock algorithms to a parameter set.
type Scheme struct {
	Set *params.Set
}

// NewScheme returns a policy-lock instance.
func NewScheme(set *params.Set) *Scheme { return &Scheme{Set: set} }

// Attestation is the witness's signature s·H1(condition) — the
// policy-lock analogue of a time-bound key update.
type Attestation struct {
	Condition string
	Point     curve.Point
}

// Attest produces the witness's attestation that condition holds. As
// with time updates, the witness publishes it once for all users.
func (sc *Scheme) Attest(witness *core.ServerKeyPair, condition string) Attestation {
	return Attestation{Condition: condition, Point: witness.Sign(sc.Set, ConditionDomain, []byte(condition))}
}

// VerifyAttestation checks ê(G, att) = ê(sG, H1(condition)).
func (sc *Scheme) VerifyAttestation(wpub core.ServerPublicKey, att Attestation) bool {
	return bls.Verify(sc.Set, wpub, sc.Set.B.HashToG2(ConditionDomain, []byte(att.Condition)), att.Point)
}

// Policy is a monotone access structure in disjunctive normal form:
// the message unlocks when every condition of at least one clause has
// been attested.
type Policy struct {
	Clauses [][]string
}

// ParsePolicy parses a policy expression of the form
//
//	"cond1 & cond2 | cond3"
//
// where '&' binds tighter than '|'. Conditions are trimmed verbatim
// strings; empty conditions and empty clauses are rejected.
func ParsePolicy(expr string) (Policy, error) {
	var p Policy
	for _, clause := range strings.Split(expr, "|") {
		var conds []string
		for _, c := range strings.Split(clause, "&") {
			c = strings.TrimSpace(c)
			if c == "" {
				return Policy{}, fmt.Errorf("policylock: empty condition in %q", expr)
			}
			conds = append(conds, c)
		}
		p.Clauses = append(p.Clauses, conds)
	}
	if len(p.Clauses) == 0 {
		return Policy{}, errors.New("policylock: empty policy")
	}
	return p, nil
}

// String renders the policy in the ParsePolicy syntax.
func (p Policy) String() string {
	clauses := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		clauses[i] = strings.Join(c, " & ")
	}
	return strings.Join(clauses, " | ")
}

// validate rejects structurally empty policies.
func (p Policy) validate() error {
	if len(p.Clauses) == 0 {
		return errors.New("policylock: policy has no clauses")
	}
	for _, c := range p.Clauses {
		if len(c) == 0 {
			return errors.New("policylock: policy has an empty clause")
		}
		for _, cond := range c {
			if cond == "" {
				return errors.New("policylock: policy has an empty condition")
			}
		}
	}
	return nil
}

// ClauseHeader encapsulates the message key for one AND clause.
type ClauseHeader struct {
	U    curve.Point // rⱼ·G
	Wrap []byte      // κ ⊕ H2(Kⱼ)
}

// Ciphertext is a policy-locked message: the (public) policy, one
// header per clause, and the masked payload.
type Ciphertext struct {
	Policy  Policy
	Headers []ClauseHeader
	V       []byte // M ⊕ Expand(κ)
}

// keyLen is the length of the inner message key κ.
const keyLen = 32

// Encrypt locks msg under the policy for the receiver with TRE public
// key upub (the receiver's private key is needed in addition to the
// attestations — the "extra lock layer" of §5.3.2 / [13]).
func (sc *Scheme) Encrypt(rng io.Reader, wpub core.ServerPublicKey, upub core.UserPublicKey, policy Policy, msg []byte) (*Ciphertext, error) {
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
	ct := &Ciphertext{
		Policy: policy,
		V:      rohash.XOR(msg, rohash.Expand("PL-DEM", kappa, len(msg))),
	}
	for _, clause := range policy.Clauses {
		r, err := sc.Set.B.RandScalar(rng)
		if err != nil {
			return nil, fmt.Errorf("policylock: sampling clause randomness: %w", err)
		}
		ct.Headers = append(ct.Headers, sc.clauseHeader(r, kappa, wpub, upub, clause))
	}
	return ct, nil
}

// Decrypt opens the ciphertext given the receiver's TRE key pair and
// any set of verified attestations. It finds the first clause whose
// conditions are all attested, aggregates those attestations, and
// decapsulates:
//
//	K'ⱼ = ê(a·Uⱼ, Σ s·H1(cᵢ)) = ê(G, ΣH1(cᵢ))^{rⱼ·a·s} = Kⱼ.
//
// It returns ErrPolicyUnsatisfied when no clause is fully attested.
func (sc *Scheme) Decrypt(upriv *core.UserKeyPair, atts []Attestation, ct *Ciphertext) ([]byte, error) {
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
		return rohash.XOR(ct.V, rohash.Expand("PL-DEM", kappa, len(ct.V))), nil
	}
	return nil, ErrPolicyUnsatisfied
}

// ErrPolicyUnsatisfied is returned when the supplied attestations do not
// cover any clause of the ciphertext's policy.
var ErrPolicyUnsatisfied = errors.New("policylock: no policy clause is fully attested")

// SatisfiedClause reports the index of the first clause covered by the
// given attested conditions, or -1.
func (p Policy) SatisfiedClause(conditions []string) int {
	have := map[string]bool{}
	for _, c := range conditions {
		have[c] = true
	}
	for j, clause := range p.Clauses {
		ok := true
		for _, c := range clause {
			if !have[c] {
				ok = false
				break
			}
		}
		if ok {
			return j
		}
	}
	return -1
}

// Conditions returns the sorted set of all conditions mentioned by the
// policy.
func (p Policy) Conditions() []string {
	set := map[string]bool{}
	for _, clause := range p.Clauses {
		for _, c := range clause {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// aggregateClause sums the attestation points for every condition of
// the clause, deduplicating repeated conditions (a condition listed
// twice still contributes once, matching clauseHashSum).
func (sc *Scheme) aggregateClause(clause []string, have map[string]curve.Point) (curve.Point, bool) {
	acc := sc.Set.B.Infinity(backend.G2)
	seen := map[string]bool{}
	for _, cond := range clause {
		if seen[cond] {
			continue
		}
		seen[cond] = true
		pt, ok := have[cond]
		if !ok {
			return curve.Point{}, false
		}
		acc = sc.Set.B.Add(backend.G2, acc, pt)
	}
	return acc, true
}

// clauseHashSum computes Σ H1(cᵢ) over the deduplicated clause.
func (sc *Scheme) clauseHashSum(clause []string) curve.Point {
	acc := sc.Set.B.Infinity(backend.G2)
	seen := map[string]bool{}
	for _, cond := range clause {
		if seen[cond] {
			continue
		}
		seen[cond] = true
		acc = sc.Set.B.Add(backend.G2, acc, sc.Set.B.HashToG2(ConditionDomain, []byte(cond)))
	}
	return acc
}

// clauseHeader encapsulates κ for one clause under randomness r:
// ⟨r·G, κ ⊕ H2(ê(r·asG, Σ H1(cᵢ)))⟩.
func (sc *Scheme) clauseHeader(r *big.Int, kappa []byte, wpub core.ServerPublicKey, upub core.UserPublicKey, clause []string) ClauseHeader {
	b := sc.Set.B
	k := b.Pair(b.ScalarMult(backend.G1, r, upub.ASG), sc.clauseHashSum(clause))
	return ClauseHeader{
		U:    b.ScalarMult(backend.G1, r, wpub.G),
		Wrap: rohash.XOR(kappa, sc.mask(k, keyLen)),
	}
}

// unwrap recovers κ from a clause header with the receiver's private
// scalar and the clause's aggregated attestation.
func (sc *Scheme) unwrap(upriv *core.UserKeyPair, hdr ClauseHeader, agg curve.Point) ([]byte, error) {
	b := sc.Set.B
	if !b.IsOnCurve(backend.G1, hdr.U) || len(hdr.Wrap) != keyLen {
		return nil, core.ErrInvalidCiphertext
	}
	k := b.Pair(b.ScalarMult(backend.G1, upriv.A, hdr.U), agg)
	return rohash.XOR(hdr.Wrap, sc.mask(k, keyLen)), nil
}

// mask is the scheme's H2 expander.
func (sc *Scheme) mask(k backend.GT, n int) []byte {
	return rohash.Expand("PL-H2", sc.Set.B.GTBytes(k), n)
}

// Threshold builds the k-of-n monotone policy over the given conditions
// as its DNF expansion: one AND clause per k-subset. Useful sizes only —
// the clause count is C(n, k), and the constructor refuses expansions
// beyond 256 clauses.
func Threshold(k int, conditions []string) (Policy, error) {
	n := len(conditions)
	if k < 1 || k > n {
		return Policy{}, fmt.Errorf("policylock: threshold %d of %d is not satisfiable", k, n)
	}
	var p Policy
	var build func(start int, cur []string) error
	build = func(start int, cur []string) error {
		if len(cur) == k {
			p.Clauses = append(p.Clauses, append([]string(nil), cur...))
			if len(p.Clauses) > 256 {
				return errors.New("policylock: threshold expansion exceeds 256 clauses")
			}
			return nil
		}
		for i := start; i < n; i++ {
			if err := build(i+1, append(cur, conditions[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(0, nil); err != nil {
		return Policy{}, err
	}
	if err := p.validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}
