// Package backend abstracts the pairing setting the TRE schemes run
// on. The paper's constructions are written for a Type-1 (symmetric)
// pairing ê: G1 × G1 → GT over a supersingular curve; modern
// pairing-friendly curves are Type-3 (asymmetric), with distinct
// groups G1 ≠ G2 and no efficient isomorphism between them. The
// Backend interface is the Type-3 generalisation: every operation is
// tagged with the group it acts in, the pairing takes a G1 point on
// the left and a G2 point on the right, and a Type-1 setting is simply
// a backend whose two groups coincide (the Symmetric adapter).
//
// A parameter set's Backend is the only way to its groups and pairing.
// Scheme code that follows the G1/G2 split — keys, generators and
// ciphertext headers in G1; hashed labels, identities and conditions,
// key updates, extracted keys and attestations in G2 — runs unchanged
// on both settings, and that is the base scheme and every §5 variant
// but one. The constructions that fundamentally require symmetry (the
// multi-server combined-key check pairs two G1 points; the appendix
// reduction states its problem in one group) gate on Asymmetric and
// return ErrSymmetricOnly rather than silently computing nonsense.
//
// Every value that crosses the interface — a curve.Point, a GT — is a
// vector of Montgomery limbs that only its own backend interprets, and
// its width tells the backends and groups apart. Mixing values of
// different backends or groups is a programming error and panics.
package backend

import (
	"errors"
	"io"
	"math/big"

	"timedrelease/internal/curve"
	"timedrelease/internal/pairing"
)

// Group tags which source group an operation acts in.
type Group uint8

const (
	// G1 is the left pairing argument's group: generators, public keys
	// and ciphertext headers live here (the cheaper group on Type-3
	// curves).
	G1 Group = 1
	// G2 is the right pairing argument's group: hashed time labels,
	// identities and conditions live here, and so does everything signed
	// over them (key updates, identity keys, attestations). On a Type-1
	// backend G2 is the same group as G1.
	G2 Group = 2
)

// String names the group for diagnostics.
func (g Group) String() string {
	switch g {
	case G1:
		return "G1"
	case G2:
		return "G2"
	default:
		return "G?"
	}
}

// ErrSymmetricOnly reports a construction that needs a Type-1
// (symmetric) pairing — it pairs two G1 points — running on an
// asymmetric backend. Callers should treat it as a permanent
// configuration error, not a transient failure.
var ErrSymmetricOnly = errors.New("backend: construction requires a Type-1 (symmetric) pairing; this backend is asymmetric")

// GT is a target-group element: Montgomery limbs of its backend's
// extension field, A ‖ B of F_{p²} on Type-1 (2n limbs) and Fp12's
// twelve coefficients on BLS12-381 (72). The GT* methods panic on a
// value of another width. A GT is never written after it is returned,
// so values may be shared across goroutines.
type GT []uint64

// PointPair is one ê(P, Q) factor of a pairing product; P ∈ G1,
// Q ∈ G2. It is the Type-1 pairing's own factor, so Symmetric passes a
// product through as it is.
type PointPair = pairing.PointPair

// PreparedKey is a server verification key (G, sG, sG2) with whatever
// per-backend pairing precomputation pays off for repeated checks. On
// Type-1 backends that is the Miller-loop line schedules of G and sG;
// on BLS12-381 nothing does, and it holds just the points (its Miller
// loop makes each G2 line as it applies it). A PreparedKey is immutable
// and safe for
// concurrent use. Both methods are bare pairing equations: validating
// the varying points is the caller's job (package bls owns the
// signature predicate).
type PreparedKey interface {
	// PairCheck evaluates ê(G, sig) = ê(sG, h) — the BLS equation of a
	// key update sig = s·h for h = H1(T). Both arguments are G2 points.
	PairCheck(h, sig curve.Point) bool

	// SameKey checks the user-key well-formedness equation
	// ê(aG, sG) = ê(G, a·sG) (in Type-3 form: ê(aG, sG2) = ê(asG, G2)),
	// proving asg = a·sG for the same a behind ag. Both arguments are
	// G1 points.
	SameKey(ag, asg curve.Point) bool
}

// BaseMul multiplies one point fixed ahead by varying scalars: k ↦ k·p
// for non-negative k, reduced as ScalarMult reduces it. Safe for
// concurrent use.
type BaseMul func(k *big.Int) curve.Point

// Backend is one complete pairing setting: two source groups, the
// scalar field, serialization, hash-to-G2 and the bilinear pairing.
// Implementations are immutable after construction and safe for
// concurrent use.
type Backend interface {
	// Name identifies the backend ("symmetric/SS512", "bls12381").
	Name() string
	// Asymmetric reports whether G1 and G2 are distinct groups.
	Asymmetric() bool
	// Order returns the prime order r of G1, G2 and GT.
	Order() *big.Int

	// Generator returns the canonical generator of g.
	Generator(g Group) curve.Point
	// Infinity returns the identity of g.
	Infinity(g Group) curve.Point
	// Add returns p+q in g.
	Add(g Group, p, q curve.Point) curve.Point
	// Neg returns −p in g.
	Neg(g Group, p curve.Point) curve.Point
	// ScalarMult returns k·p in g; k must be non-negative. A Type-1
	// backend walks k as given — p may be any curve point, and the
	// cofactor h > r goes through here — while BLS12-381 reduces k
	// modulo r first and needs p in the subgroup (its endomorphism
	// split), which every point it hands out is; the two agree wherever
	// p is in the subgroup.
	ScalarMult(g Group, k *big.Int, p curve.Point) curve.Point
	// PrepareBase readies p ∈ g for multiplication by many scalars.
	// BLS12-381 builds a table of a G2 point's multiples, which its
	// multiplications walk with no doubling; Type-1 backends and
	// BLS12-381's G1 answer with ScalarMult.
	PrepareBase(g Group, p curve.Point) BaseMul
	// MSM returns Σ scalarsᵢ·pointsᵢ in g as one multi-scalar
	// multiplication: the point Σ ScalarMult + Add gives on subgroup
	// points. Scalars (one per point) must be non-negative and are
	// walked as given, never reduced.
	MSM(g Group, scalars []*big.Int, points []curve.Point) curve.Point
	// Equal reports whether p and q are the same point of g.
	Equal(g Group, p, q curve.Point) bool
	// IsOnCurve reports whether p lies on g's curve (infinity counts).
	IsOnCurve(g Group, p curve.Point) bool
	// InSubgroup reports whether p lies in g's prime-order subgroup.
	// Membership is proved once per point, where the point enters: a
	// point that ParsePoint returned carries that proof and is answered
	// at once (Type-1: curve.Point's member bit; bls12381: every handle
	// the backend wraps, since it hands out members only). Any other
	// Type-1 point — a sum, a multiple, a literal — runs the full test.
	InSubgroup(g Group, p curve.Point) bool
	// HashToG2 is the paper's H1: a random-oracle hash of (domain, msg)
	// onto G2.
	HashToG2(domain string, msg []byte) curve.Point
	// HashSumG2 returns Σ scalarsᵢ·HashToG2(domain, msgsᵢ), clearing
	// the cofactor once: HashToG2 is [h]·M(msg) for a map M onto the
	// whole curve, so the sum is [h]·Σ scalarsᵢ·M(msgsᵢ), the scalars
	// walked as given over the uncleared points. A Type-1 sum differs
	// where HashToG2 retries on [h]·M = ∞ (probability 1/r a message):
	// callers fall back to HashToG2 when a check built on it fails.
	HashSumG2(domain string, scalars []*big.Int, msgs [][]byte) curve.Point
	// RandScalar samples a uniform scalar in [1, r−1].
	RandScalar(rng io.Reader) (*big.Int, error)

	// PointLen returns the byte length of g's canonical point encoding.
	PointLen(g Group) int
	// AppendPoint appends the canonical encoding of p to dst.
	AppendPoint(dst []byte, g Group, p curve.Point) []byte
	// ParsePoint decodes a canonical encoding, rejecting anything
	// non-canonical, off-curve or outside the prime-order subgroup.
	ParsePoint(g Group, data []byte) (curve.Point, error)

	// Pair computes ê(p, q) for p ∈ G1, q ∈ G2; identity on either side
	// gives 1.
	Pair(p, q curve.Point) GT
	// PairProduct computes Π ê(Pᵢ, Qᵢ) with one shared final
	// exponentiation.
	PairProduct(pairs []PointPair) GT
	// SamePairing reports ê(a1, b1) == ê(a2, b2) for a∈G1, b∈G2,
	// evaluated as one product ê(−a1, b1)·ê(a2, b2) == 1.
	SamePairing(a1, b1, a2, b2 curve.Point) bool
	// PrepareKey precomputes a server verification key for repeated
	// pairing checks. g and sg are G1 points; sg2 = s·G2 is the G2
	// mirror of sg (pass sg itself on a symmetric backend).
	PrepareKey(g, sg, sg2 curve.Point) PreparedKey

	// GTOne returns the identity of the target group.
	GTOne() GT
	// GTEqual reports whether two target-group elements are equal.
	GTEqual(a, b GT) bool
	// GTIsOne reports whether a is the target-group identity.
	GTIsOne(a GT) bool
	// GTMul returns a·b in the target group.
	GTMul(a, b GT) GT
	// GTExpUnitary returns a^k for a unitary a (any pairing output);
	// k must be non-negative.
	GTExpUnitary(a GT, k *big.Int) GT
	// GTBytes returns the canonical fixed-length encoding of a, the
	// input to the scheme's H2 mask derivation.
	GTBytes(a GT) []byte
}
