// Package threshold implements k-of-n threshold time servers.
//
// The paper's §5.3.5 multi-server construction hardens CONFIDENTIALITY
// (all N servers must collude to release early) but weakens AVAILABILITY
// (one crashed server and nothing ever opens). This package provides the
// natural dual, built from threshold BLS over the same pairing: the
// server secret s is Shamir-shared among n servers, each publishes a
// PARTIAL update sᵢ·H1(T) at time T, and ANY k of them combine — via
// Lagrange interpolation in the exponent — into the ordinary update
// s·H1(T):
//
//	Σ_{i∈S} λᵢ·sᵢ·H1(T) = (Σ λᵢ·f(i))·H1(T) = f(0)·H1(T) = s·H1(T)
//
// The combined update is byte-identical to a single-server update, so
// every TRE/ID-TRE/policy-lock ciphertext and all receiver code work
// unchanged. Fewer than k servers learn nothing about s·H1(T).
//
// The dealer is a trusted one-time ceremony (it sees s and must erase
// it); a distributed key generation protocol would remove the dealer and
// is noted as future work in DESIGN.md.
package threshold

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// Share is one server's slice of the group key.
type Share struct {
	Index int         // 1-based evaluation point
	S     *big.Int    // f(Index), the server's signing share
	Pub   curve.Point // sᵢ·G, for partial verification
}

// Setup is the result of the dealing ceremony.
type Setup struct {
	K, N     int
	GroupPub core.ServerPublicKey // (G, sG): what senders and receivers use
	Shares   []Share              // one per server; distribute and erase
}

// Deal runs the trusted dealing ceremony: sample a degree-(k−1)
// polynomial f with random f(0)=s, hand server i the share f(i), and
// publish (G, sG). The polynomial (and s) are discarded on return.
func Deal(set *params.Set, rng io.Reader, k, n int) (*Setup, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("threshold: need 1 ≤ k ≤ n, got k=%d n=%d", k, n)
	}
	coeffs := make([]*big.Int, k)
	for i := range coeffs {
		c, err := set.B.RandScalar(rng)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	qf, err := fieldOfOrder(set)
	if err != nil {
		return nil, err
	}
	eval := func(x int64) *big.Int {
		// Horner's rule over Z_q.
		acc := new(big.Int)
		xv := big.NewInt(x)
		for i := len(coeffs) - 1; i >= 0; i-- {
			acc = qf.Add(qf.Mul(acc, xv), coeffs[i])
		}
		return acc
	}

	group, err := bls.NewPrivateKey(set, set.G, coeffs[0])
	if err != nil {
		return nil, err
	}
	setup := &Setup{K: k, N: n, GroupPub: group.Pub}
	for i := 1; i <= n; i++ {
		si := eval(int64(i))
		if si.Sign() == 0 {
			// Astronomically unlikely; re-deal rather than hand out a zero
			// share.
			return Deal(set, rng, k, n)
		}
		setup.Shares = append(setup.Shares, Share{
			Index: i,
			S:     si,
			Pub:   set.B.ScalarMult(backend.G1, si, set.G),
		})
	}
	return setup, nil
}

// PartialUpdate is one server's contribution for a label.
type PartialUpdate struct {
	Index int
	Label string
	Point curve.Point // sᵢ·H1(label)
}

// IssuePartial produces server i's partial update for a label.
func IssuePartial(set *params.Set, share Share, label string) PartialUpdate {
	h := set.B.HashToG2(core.TimeDomain, []byte(label))
	return PartialUpdate{
		Index: share.Index,
		Label: label,
		Point: set.B.ScalarMult(backend.G2, share.S, h),
	}
}

// VerifyPartial checks a partial against the issuing server's public
// share point: ê(G, σᵢ) = ê(sᵢG, H1(T)). Run this before Combine so a
// single Byzantine server cannot spoil reconstruction.
func VerifyPartial(set *params.Set, sharePub curve.Point, pu PartialUpdate) bool {
	h := set.B.HashToG2(core.TimeDomain, []byte(pu.Label))
	return bls.Verify(set, bls.PublicKey{G: set.G, SG: sharePub}, h, pu.Point)
}

// Combine interpolates any k distinct verified partials into the
// ordinary time-bound key update s·H1(T), then checks it against the
// group public key (so a bad subset is reported, never returned).
func Combine(set *params.Set, groupPub core.ServerPublicKey, partials []PartialUpdate, k int) (core.KeyUpdate, error) {
	if len(partials) < k {
		return core.KeyUpdate{}, &QuorumError{Need: k, Have: len(partials)}
	}
	// Take the first k distinct indices with a consistent label.
	label := partials[0].Label
	chosen := make([]PartialUpdate, 0, k)
	seen := map[int]bool{}
	for _, p := range partials {
		if p.Label != label {
			return core.KeyUpdate{}, core.ErrLabelMismatch
		}
		if p.Index < 1 || seen[p.Index] {
			continue
		}
		seen[p.Index] = true
		chosen = append(chosen, p)
		if len(chosen) == k {
			break
		}
	}
	if len(chosen) < k {
		return core.KeyUpdate{}, &QuorumError{Need: k, Have: len(chosen)}
	}

	qf, err := fieldOfOrder(set)
	if err != nil {
		return core.KeyUpdate{}, err
	}
	indices := make([]int, k)
	points := make([]curve.Point, k)
	for i, p := range chosen {
		indices[i], points[i] = p.Index, p.Point
	}
	upd := core.KeyUpdate{Label: label, Point: set.B.MSM(backend.G2, lagrangeAtZero(qf, indices), points)}
	if !bls.Verify(set, groupPub, set.B.HashToG2(core.TimeDomain, []byte(label)), upd.Point) {
		return core.KeyUpdate{}, ErrBadCombination
	}
	return upd, nil
}

// ErrBadCombination reports that the interpolated update failed the
// self-authentication check — at least one partial was invalid or the
// subset mixed shares of different dealings.
var ErrBadCombination = errors.New("threshold: combined update failed verification (bad partial in subset?)")

// QuorumError reports a combination or fan-out that could not gather k
// usable partials: Have distinct verified partials against a quorum of
// Need, with the per-shard failure causes (when known) unwrappable via
// errors.Is/As.
type QuorumError struct {
	Need, Have int
	Causes     []error
}

// Error renders the quorum shortfall with its causes.
func (e *QuorumError) Error() string {
	msg := fmt.Sprintf("threshold: quorum not reached (%d of %d needed)", e.Have, e.Need)
	if len(e.Causes) > 0 {
		msg += ": " + errors.Join(e.Causes...).Error()
	}
	return msg
}

// Unwrap exposes the per-shard causes to errors.Is/As.
func (e *QuorumError) Unwrap() []error { return e.Causes }

// RecoverSecret reconstructs the group secret s = f(0) from any k
// distinct shares. This exists for dealing ceremonies (migrating a
// group to a new quorum layout) and for differential tests that pin the
// threshold scheme against the single-server one — production shards
// must never pool their shares.
func RecoverSecret(set *params.Set, shares []Share, k int) (*big.Int, error) {
	if k < 1 || len(shares) < k {
		return nil, &QuorumError{Need: k, Have: len(shares)}
	}
	chosen := make([]Share, 0, k)
	seen := map[int]bool{}
	for _, sh := range shares {
		if sh.Index < 1 || seen[sh.Index] {
			continue
		}
		seen[sh.Index] = true
		chosen = append(chosen, sh)
		if len(chosen) == k {
			break
		}
	}
	if len(chosen) < k {
		return nil, &QuorumError{Need: k, Have: len(chosen)}
	}
	qf, err := fieldOfOrder(set)
	if err != nil {
		return nil, err
	}
	indices := make([]int, k)
	for i, sh := range chosen {
		indices[i] = sh.Index
	}
	lambdas := lagrangeAtZero(qf, indices)
	s := new(big.Int)
	for i, sh := range chosen {
		s = qf.Add(s, qf.Mul(lambdas[i], sh.S))
	}
	return s, nil
}

// lagrangeAtZero returns the Lagrange coefficients λᵢ = Π_{j≠i}
// xⱼ/(xⱼ−xᵢ) mod q for evaluation at zero.
func lagrangeAtZero(qf *scalarField, indices []int) []*big.Int {
	out := make([]*big.Int, len(indices))
	for i, xi := range indices {
		num := big.NewInt(1)
		den := big.NewInt(1)
		for j, xj := range indices {
			if i == j {
				continue
			}
			num = qf.Mul(num, big.NewInt(int64(xj)))
			den = qf.Mul(den, qf.Sub(big.NewInt(int64(xj)), big.NewInt(int64(xi))))
		}
		out[i] = qf.Mul(num, qf.Inv(den))
	}
	return out
}

// scalarField is minimal mod-q arithmetic for interpolation.
type scalarField struct {
	q *big.Int
}

func fieldOfOrder(set *params.Set) (*scalarField, error) {
	if set.Q.Sign() <= 0 {
		return nil, errors.New("threshold: bad group order")
	}
	return &scalarField{q: set.Q}, nil
}

func (f *scalarField) Add(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), f.q)
}

func (f *scalarField) Sub(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Sub(a, b), f.q)
}

func (f *scalarField) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), f.q)
}

func (f *scalarField) Inv(a *big.Int) *big.Int {
	r := new(big.Int).ModInverse(new(big.Int).Mod(a, f.q), f.q)
	if r == nil {
		panic("threshold: inverse of zero")
	}
	return r
}
