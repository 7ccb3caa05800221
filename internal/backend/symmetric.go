package backend

import (
	"io"
	"math/big"

	"timedrelease/internal/curve"
	"timedrelease/internal/pairing"
)

// Symmetric adapts the paper's Type-1 setting — one supersingular
// curve group, the modified Tate pairing — to the Backend interface.
// Both group tags resolve to the same curve, so every operation
// delegates verbatim to the curve and pairing packages the reference
// implementation has always used: results are bit-for-bit identical to
// calling those packages directly, which the pre-refactor golden
// vectors pin.
type Symmetric struct {
	name string
	c    *curve.Curve
	pr   *pairing.Pairing
	g    curve.Point
}

// NewSymmetric wraps a Type-1 curve/pairing pair as a Backend. The
// name should identify the parameter set ("SS512", ...); g is the
// canonical subgroup generator (used for both Generator tags).
func NewSymmetric(name string, c *curve.Curve, pr *pairing.Pairing, g curve.Point) *Symmetric {
	return &Symmetric{name: name, c: c, pr: pr, g: g}
}

// Type1 exposes the supersingular curve and modified Tate pairing
// behind the adapter, for the code that measures or cross-checks the
// Type-1 internals themselves: E4's affine-vs-production table (the
// affine side from internal/ref), the differential tests and
// params.Set.Field for the benchmark's F_p probes. Scheme code has no
// business here. Reach it through set.B.(*backend.Symmetric) — an
// assertion that fails on an asymmetric set, where a field could only
// have been nil.
func (b *Symmetric) Type1() (*curve.Curve, *pairing.Pairing) { return b.c, b.pr }

// Name identifies the backend.
func (b *Symmetric) Name() string { return "symmetric/" + b.name }

// Asymmetric reports false: G1 and G2 coincide.
func (b *Symmetric) Asymmetric() bool { return false }

// Order returns the subgroup order q.
func (b *Symmetric) Order() *big.Int { return b.c.Q }

// Generator returns the canonical generator (same point for both tags).
func (b *Symmetric) Generator(Group) curve.Point { return b.g }

// Infinity returns the identity.
func (b *Symmetric) Infinity(Group) curve.Point { return curve.Infinity() }

// Add returns p+q.
func (b *Symmetric) Add(_ Group, p, q curve.Point) curve.Point { return b.c.Add(p, q) }

// Neg returns −p.
func (b *Symmetric) Neg(_ Group, p curve.Point) curve.Point { return b.c.Neg(p) }

// ScalarMult returns k·p.
func (b *Symmetric) ScalarMult(_ Group, k *big.Int, p curve.Point) curve.Point {
	return b.c.ScalarMult(k, p)
}

// PrepareBase answers with the ladder: the Type-1 curve keeps no
// fixed-base table (ROADMAP item 13).
func (b *Symmetric) PrepareBase(_ Group, p curve.Point) BaseMul {
	return func(k *big.Int) curve.Point { return b.c.ScalarMult(k, p) }
}

// MSM returns Σ scalarsᵢ·pointsᵢ.
func (b *Symmetric) MSM(_ Group, scalars []*big.Int, points []curve.Point) curve.Point {
	return b.c.MSM(scalars, points)
}

// Equal reports point equality.
func (b *Symmetric) Equal(_ Group, p, q curve.Point) bool { return b.c.Equal(p, q) }

// IsOnCurve reports curve membership.
func (b *Symmetric) IsOnCurve(_ Group, p curve.Point) bool { return b.c.IsOnCurve(p) }

// InSubgroup reports prime-order subgroup membership.
func (b *Symmetric) InSubgroup(_ Group, p curve.Point) bool { return b.c.InSubgroup(p) }

// HashToG2 is the try-and-increment H1 of the reference curve.
func (b *Symmetric) HashToG2(domain string, msg []byte) curve.Point {
	return b.c.HashToGroup(domain, msg)
}

// HashSumG2 is Σ scalarsᵢ·H1(domain, msgsᵢ) over the uncleared
// try-and-increment candidates, times the cofactor once.
func (b *Symmetric) HashSumG2(domain string, scalars []*big.Int, msgs [][]byte) curve.Point {
	return b.c.HashSum(domain, scalars, msgs)
}

// RandScalar samples a uniform scalar in Z_q^*.
func (b *Symmetric) RandScalar(rng io.Reader) (*big.Int, error) { return b.c.RandScalar(rng) }

// PointLen returns the compressed encoding size.
func (b *Symmetric) PointLen(Group) int { return b.c.MarshalSize() }

// AppendPoint appends the canonical compressed encoding.
func (b *Symmetric) AppendPoint(dst []byte, _ Group, p curve.Point) []byte {
	return b.c.AppendMarshal(dst, p)
}

// ParsePoint decodes a compressed encoding with subgroup validation.
func (b *Symmetric) ParsePoint(_ Group, data []byte) (curve.Point, error) {
	return b.c.UnmarshalSubgroup(data)
}

// Pair computes the modified Tate pairing ê(p, q).
func (b *Symmetric) Pair(p, q curve.Point) GT { return GT(b.pr.Pair(p, q)) }

// PairProduct computes Π ê(Pᵢ, Qᵢ) with one final exponentiation.
func (b *Symmetric) PairProduct(pairs []PointPair) GT { return GT(b.pr.PairProduct(pairs)) }

// SamePairing reports ê(a1, b1) == ê(a2, b2).
func (b *Symmetric) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	return b.pr.SamePairing(a1, b1, a2, b2)
}

// PrepareKey precomputes the Miller-loop line schedules of g and sg;
// sg2 is ignored (it coincides with sg in the symmetric setting).
func (b *Symmetric) PrepareKey(g, sg, _ curve.Point) PreparedKey {
	return &symPrepared{
		b:  b,
		g:  b.pr.Precompute(g),
		sg: b.pr.Precompute(sg),
	}
}

// symPrepared is the Type-1 PreparedKey: the line schedules of the two
// fixed first pairing arguments.
type symPrepared struct {
	b     *Symmetric
	g, sg *pairing.PreparedPoint
}

func (pk *symPrepared) PairCheck(h, sig curve.Point) bool {
	return pk.b.pr.SamePairingPrepared(pk.g, sig, pk.sg, h)
}

func (pk *symPrepared) SameKey(ag, asg curve.Point) bool {
	// ê(sG, aG) = ê(G, a·sG), fixed server points in the prepared slots.
	return pk.b.pr.SamePairingPrepared(pk.sg, ag, pk.g, asg)
}

// GTOne returns 1 ∈ F_{p²}.
func (b *Symmetric) GTOne() GT { return GT(b.pr.GTOne()) }

// GTEqual reports target-group equality.
func (b *Symmetric) GTEqual(x, y GT) bool { return b.pr.GTEqual(pairing.GT(x), pairing.GT(y)) }

// GTIsOne reports whether x is the identity.
func (b *Symmetric) GTIsOne(x GT) bool { return b.pr.GTIsOne(pairing.GT(x)) }

// GTMul returns x·y in F_{p²}.
func (b *Symmetric) GTMul(x, y GT) GT { return GT(b.pr.GTMul(pairing.GT(x), pairing.GT(y))) }

// GTExpUnitary runs the conjugation-as-inversion signed-window ladder.
func (b *Symmetric) GTExpUnitary(x GT, k *big.Int) GT {
	return GT(b.pr.GTExpUnitary(pairing.GT(x), k))
}

// GTBytes returns the canonical fixed-width F_{p²} encoding.
func (b *Symmetric) GTBytes(x GT) []byte { return b.pr.GTBytes(pairing.GT(x)) }
