// Package variants is the public API of the paper's variant schemes,
// all receiver-side constructions over the one passive time server of
// package tre: identity-based TRE (§5.2), policy locks (§5.3.2),
// multi-server TRE (§5.3.5) and the missing-update-resilient HIBE time
// tree (§6). Each owns its ciphertext and key encodings
// (MarshalCiphertext and friends on its scheme). The set arguments are
// *tre.Params. The serving binaries do not link this package.
package variants

import (
	"timedrelease/internal/hibe"
	"timedrelease/internal/idtre"
	"timedrelease/internal/multiserver"
	"timedrelease/internal/params"
	"timedrelease/internal/policylock"
	"timedrelease/internal/resilient"
)

// Identity-based timed release encryption (paper §5.2). The same time
// server and key updates serve both TRE and ID-TRE; the trade-off is
// inherent key escrow (the server can decrypt).
type (
	// IDScheme exposes the ID-TRE algorithms.
	IDScheme = idtre.Scheme
	// IDUserPrivateKey is an extracted identity key s·H1(ID).
	IDUserPrivateKey = idtre.UserPrivateKey
	// IDCiphertext is the ID-TRE ciphertext.
	IDCiphertext = idtre.Ciphertext
	// IDCCACiphertext is the FO-transformed ID-TRE ciphertext.
	IDCCACiphertext = idtre.CCACiphertext
)

// NewIDScheme returns an ID-TRE instance over the parameter set.
func NewIDScheme(set *params.Set) *IDScheme { return idtre.NewScheme(set) }

// Multi-server timed release encryption (paper §5.3.5): decryption
// requires the updates of ALL chosen servers.
type (
	// MultiScheme exposes the multi-server algorithms.
	MultiScheme = multiserver.Scheme
	// ServerGroup is the ordered list of chosen time servers.
	ServerGroup = multiserver.ServerGroup
	// MultiUserKeyPair is a receiver's key for a server group.
	MultiUserKeyPair = multiserver.UserKeyPair
	// MultiUserPublicKey is (aG, a·Σ sᵢGᵢ).
	MultiUserPublicKey = multiserver.UserPublicKey
	// MultiCiphertext carries one header point per server.
	MultiCiphertext = multiserver.Ciphertext
)

// NewMultiScheme returns a multi-server TRE instance.
func NewMultiScheme(set *params.Set) *MultiScheme { return multiserver.NewScheme(set) }

// Policy-lock encryption (paper §5.3.2): release is gated on witness
// attestations of arbitrary conditions instead of the passage of time.
type (
	// PolicyScheme exposes the policy-lock algorithms.
	PolicyScheme = policylock.Scheme
	// Policy is a monotone DNF access structure.
	Policy = policylock.Policy
	// Attestation is the witness's signature on a condition.
	Attestation = policylock.Attestation
	// PolicyCiphertext is a policy-locked message.
	PolicyCiphertext = policylock.Ciphertext
)

// ErrPolicyUnsatisfied is returned when no policy clause is fully
// attested.
var ErrPolicyUnsatisfied = policylock.ErrPolicyUnsatisfied

// NewPolicyScheme returns a policy-lock instance.
func NewPolicyScheme(set *params.Set) *PolicyScheme { return policylock.NewScheme(set) }

// ParsePolicy parses "a & b | c" (AND binds tighter than OR).
func ParsePolicy(expr string) (Policy, error) { return policylock.ParsePolicy(expr) }

// ThresholdPolicy builds the k-of-n policy over the conditions as a DNF
// expansion (refused beyond 256 clauses).
func ThresholdPolicy(k int, conditions []string) (Policy, error) {
	return policylock.Threshold(k, conditions)
}

// Missing-update resilience (paper §6 future work): a HIBE time tree
// whose per-epoch publication covers ALL past epochs in O(log N) keys.
type (
	// ResilientScheme is the time-tree scheme.
	ResilientScheme = resilient.Scheme
	// TreeRootKey is the time server's HIBE root key.
	TreeRootKey = hibe.RootKey
	// TreeNodeKey is a published (or derived) subtree key bundle.
	TreeNodeKey = hibe.NodeKey
	// TreeCiphertext is a ciphertext addressed to one epoch leaf.
	TreeCiphertext = hibe.Ciphertext
)

// ErrNotCovered reports that the published cover does not reach the
// requested epoch yet.
var ErrNotCovered = resilient.ErrNotCovered

// NewResilientScheme returns a time-tree scheme over 2^depth epochs.
func NewResilientScheme(set *params.Set, depth int) (*ResilientScheme, error) {
	return resilient.NewScheme(set, depth)
}
