package bls381

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
)

// This file adapts the curve implementation to the backend.Backend
// interface. Every value crosses it as one vector of Montgomery limbs
// (fe): a G1 point x ‖ y (12 limbs), a G2 point x.c0 ‖ x.c1 ‖ y.c0 ‖ y.c1
// (24), a GT value fe12's twelve coefficients in tower order (72). A
// value of another width — the other group's, or the Type-1 backend's —
// panics, but a coordinate-less point (curve.Infinity(), the zero value)
// is the identity of either group, so generic scheme code that starts a
// sum from curve.Infinity keeps working.

// BackendName is the Name() of the BLS12-381 backend.
const BackendName = "bls12381"

// dstPrefix namespaces the RFC 9380 domain-separation tag per H1
// oracle: the final DST is dstPrefix ‖ domain ‖ dstSuffix. The prefix
// counts oracle revisions (V02: the cofactor is cleared by h_eff, not
// h2); the suffix is the suite identifier of RFC 9380 §3.1, SVDW not
// the registered SSWU (hash.go).
const (
	dstPrefix = "TRE-V02-"
	dstSuffix = "_BLS12381G2_XMD:SHA-256_SVDW_RO_"
)

// flat returns the limbs of fs, in order, as one fresh vector.
func flat(fs ...*fe) ff.MontElem {
	v := make(ff.MontElem, 0, len(fs)*feLimbs)
	for _, f := range fs {
		v = append(v, f[:]...)
	}
	return v
}

// unflat reads v back into fs, in order.
func unflat(v []uint64, fs ...*fe) {
	for i, f := range fs {
		*f = fe(v[i*feLimbs:])
	}
}

func wrapG1(p *g1Affine) curve.Point { return curve.FromLimbs(flat(&p.x, &p.y), p.inf) }

func wrapG2(p *g2Affine) curve.Point {
	return curve.FromLimbs(flat(&p.x.c0, &p.x.c1, &p.y.c0, &p.y.c1), p.inf)
}

// unwrap reads p's coordinates into fs, x's then y's, and reports
// whether p is the identity. A point of group g has len(fs) coordinate
// limb groups; one of any other width is a programming error.
func unwrap(p curve.Point, g backend.Group, fs ...*fe) (inf bool) {
	x, y := p.Limbs()
	if len(x) != 0 && len(x)+len(y) != len(fs)*feLimbs {
		panic(fmt.Sprintf("bls381: %v operation on a %d-limb point", g, len(x)+len(y)))
	}
	if len(x) == 0 || p.IsInfinity() {
		return true
	}
	unflat(x, fs[:len(fs)/2]...)
	unflat(y, fs[len(fs)/2:]...)
	return false
}

func unwrapG1(p curve.Point) (a g1Affine) {
	a.inf = unwrap(p, backend.G1, &a.x, &a.y)
	return a
}

func unwrapG2(p curve.Point) (a g2Affine) {
	a.inf = unwrap(p, backend.G2, &a.x.c0, &a.x.c1, &a.y.c0, &a.y.c1)
	return a
}

// Backend is the BLS12-381 implementation of backend.Backend.
// The zero value is not usable; call New.
type Backend struct{}

// New returns the BLS12-381 backend, initialising the package-level
// arithmetic context on first use.
func New() *Backend {
	initCtx()
	return &Backend{}
}

// Name identifies the backend.
func (b *Backend) Name() string { return BackendName }

// Asymmetric reports true: G1 ⊂ E(Fp) and G2 ⊂ E'(Fp2) are distinct.
func (b *Backend) Asymmetric() bool { return true }

// Order returns the 255-bit prime r.
func (b *Backend) Order() *big.Int { return ctx.r }

// Generator returns the standard generator of g.
func (b *Backend) Generator(g backend.Group) curve.Point {
	if g == backend.G2 {
		return wrapG2(&ctx.g2)
	}
	return wrapG1(&ctx.g1)
}

// Infinity returns the identity of g.
func (b *Backend) Infinity(g backend.Group) curve.Point {
	if g == backend.G2 {
		return wrapG2(&g2Affine{inf: true})
	}
	return wrapG1(&g1Affine{inf: true})
}

// Add returns p+q.
func (b *Backend) Add(g backend.Group, p, q curve.Point) curve.Point {
	if g == backend.G2 {
		pa, qa := unwrapG2(p), unwrapG2(q)
		var jp, jq g2Jac
		jp.fromAffine(&pa)
		jq.fromAffine(&qa)
		jp.add(&jp, &jq)
		out := jp.toAffine()
		return wrapG2(&out)
	}
	pa, qa := unwrapG1(p), unwrapG1(q)
	var jp, jq g1Jac
	jp.fromAffine(&pa)
	jq.fromAffine(&qa)
	jp.add(&jp, &jq)
	out := jp.toAffine()
	return wrapG1(&out)
}

// Neg returns −p.
func (b *Backend) Neg(g backend.Group, p curve.Point) curve.Point {
	if g == backend.G2 {
		pa := unwrapG2(p)
		var n g2Affine
		n.neg(&pa)
		return wrapG2(&n)
	}
	pa := unwrapG1(p)
	var n g1Affine
	n.neg(&pa)
	return wrapG1(&n)
}

// reduceScalar clamps k into [0, r); negative scalars panic to match
// the Type-1 curve's contract.
func reduceScalar(k *big.Int) *big.Int {
	if k.Sign() < 0 {
		panic("bls381: negative scalar")
	}
	if k.Cmp(ctx.r) >= 0 {
		return new(big.Int).Mod(k, ctx.r)
	}
	return k
}

// ScalarMult returns k·p (k reduced mod r) on the group's endomorphism:
// ψ-GLS in G2, φ-GLV in G1 (mulEndo), a quarter and a half of the
// doublings of a plain ladder. They are sound only because of this
// backend's invariant: every point it hands out is a subgroup member —
// ParsePoint checks membership, HashToG2 and HashSumG2 clear the
// cofactor, and the group operations close — so ψ = [x] and φ = [−x²]
// hold on p. MSM and HashSumG2 keep plain digits: the latter sums
// uncleared twist points.
func (b *Backend) ScalarMult(g backend.Group, k *big.Int, p curve.Point) curve.Point {
	k = reduceScalar(k)
	if g == backend.G2 {
		pa := unwrapG2(p)
		var j g2Jac
		j.fromAffine(&pa)
		j.mulEndo(&j, k)
		out := j.toAffine()
		return wrapG2(&out)
	}
	pa := unwrapG1(p)
	var j g1Jac
	j.fromAffine(&pa)
	j.mulEndo(&j, k)
	out := j.toAffine()
	return wrapG1(&out)
}

// PrepareBase returns k ↦ k·p. A G2 point other than the identity gets
// a table of its multiples (fixedbase.go), about five ladders' work to
// build; the generator's is built once per process, on first use. G1
// points and the identity keep the ladder.
func (b *Backend) PrepareBase(g backend.Group, p curve.Point) backend.BaseMul {
	if g == backend.G2 {
		if pa := unwrapG2(p); !pa.inf {
			if pa.equal(&ctx.g2) {
				return g2GenTable().mul
			}
			return newG2Table(&pa).mul
		}
	}
	return func(k *big.Int) curve.Point { return b.ScalarMult(g, k, p) }
}

// MSM returns Σ scalarsᵢ·pointsᵢ (scalars walked as given).
func (b *Backend) MSM(g backend.Group, scalars []*big.Int, points []curve.Point) curve.Point {
	if len(scalars) != len(points) {
		panic("bls381: MSM needs one scalar per point")
	}
	if g == backend.G2 {
		sum := msm(scalars, func(i int, j *g2Jac) {
			pa := unwrapG2(points[i])
			j.fromAffine(&pa)
		})
		out := sum.toAffine()
		return wrapG2(&out)
	}
	sum := msm(scalars, func(i int, j *g1Jac) {
		pa := unwrapG1(points[i])
		j.fromAffine(&pa)
	})
	out := sum.toAffine()
	return wrapG1(&out)
}

// Equal reports point equality.
func (b *Backend) Equal(g backend.Group, p, q curve.Point) bool {
	if g == backend.G2 {
		pa, qa := unwrapG2(p), unwrapG2(q)
		return pa.equal(&qa)
	}
	pa, qa := unwrapG1(p), unwrapG1(q)
	return pa.equal(&qa)
}

// IsOnCurve reports curve (or twist) membership.
func (b *Backend) IsOnCurve(g backend.Group, p curve.Point) bool {
	if g == backend.G2 {
		pa := unwrapG2(p)
		return pa.isOnCurve()
	}
	pa := unwrapG1(p)
	return pa.isOnCurve()
}

// InSubgroup reports r-torsion membership, which on this backend is a
// property of the handle: every point it wraps is a member (ParsePoint
// runs the ψ or φ test, the hashes clear the cofactor, the group
// operations close), so it only checks that p is this backend's point
// of group g. The raw g1Affine/g2Affine.inSubgroup tests run at decode.
func (b *Backend) InSubgroup(g backend.Group, p curve.Point) bool {
	if g == backend.G2 {
		unwrapG2(p)
	} else {
		unwrapG1(p)
	}
	return true
}

// HashToG2 runs the RFC 9380 pipeline with a per-domain DST.
func (b *Backend) HashToG2(domain string, msg []byte) curve.Point {
	h := hashToG2(msg, dstPrefix+domain+dstSuffix)
	return wrapG2(&h)
}

// HashSumG2 is Σ scalarsᵢ·H1(domain, msgsᵢ) over the uncleared twist
// points, through clear_cofactor once; the identity is exact here
// (hashToG2 never retries).
func (b *Backend) HashSumG2(domain string, scalars []*big.Int, msgs [][]byte) curve.Point {
	if len(scalars) != len(msgs) {
		panic("bls381: HashSumG2 needs one scalar per message")
	}
	dst := dstPrefix + domain + dstSuffix
	sum := msm(scalars, func(i int, j *g2Jac) { mapToTwist(j, msgs[i], dst) })
	sum.clearCofactor(&sum)
	out := sum.toAffine()
	return wrapG2(&out)
}

// RandScalar samples a uniform scalar in [1, r−1]; a nil rng reads
// crypto/rand.
func (b *Backend) RandScalar(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	rm1 := new(big.Int).Sub(ctx.r, big.NewInt(1))
	k, err := rand.Int(rng, rm1)
	if err != nil {
		return nil, err
	}
	return k.Add(k, big.NewInt(1)), nil
}

// PointLen returns the zcash compressed encoding size: 48 (G1) or
// 96 (G2) bytes.
func (b *Backend) PointLen(g backend.Group) int {
	if g == backend.G2 {
		return g2ByteLen
	}
	return feByteLen
}

// AppendPoint appends the zcash compressed encoding.
func (b *Backend) AppendPoint(dst []byte, g backend.Group, p curve.Point) []byte {
	if g == backend.G2 {
		pa := unwrapG2(p)
		return marshalG2(dst, &pa)
	}
	pa := unwrapG1(p)
	return marshalG1(dst, &pa)
}

// ParsePoint decodes a compressed encoding, rejecting non-canonical
// bytes, off-curve x and points outside the r-torsion.
func (b *Backend) ParsePoint(g backend.Group, data []byte) (curve.Point, error) {
	if g == backend.G2 {
		pa, err := unmarshalG2(data)
		if err != nil {
			return curve.Point{}, err
		}
		if !pa.isInfinity() && !pa.inSubgroup() {
			return curve.Point{}, errors.New("bls381: G2 point is not in the prime-order subgroup")
		}
		return wrapG2(&pa), nil
	}
	pa, err := unmarshalG1(data)
	if err != nil {
		return curve.Point{}, err
	}
	if !pa.isInfinity() && !pa.inSubgroup() {
		return curve.Point{}, errors.New("bls381: G1 point is not in the prime-order subgroup")
	}
	return wrapG1(&pa), nil
}

// Pair computes the optimal-ate pairing e(p, q).
func (b *Backend) Pair(p, q curve.Point) backend.GT {
	pa, qa := unwrapG1(p), unwrapG2(q)
	v := pair(&pa, &qa)
	return wrapGT(&v)
}

// PairProduct computes Π e(Pᵢ, Qᵢ) with one shared Miller loop and
// final exponentiation.
func (b *Backend) PairProduct(pairs []backend.PointPair) backend.GT {
	ps := make([]*g1Affine, len(pairs))
	qs := make([]*g2Affine, len(pairs))
	for i, f := range pairs {
		pa, qa := unwrapG1(f.P), unwrapG2(f.Q)
		ps[i], qs[i] = &pa, &qa
	}
	v := pairProduct(ps, qs)
	return wrapGT(&v)
}

// SamePairing reports e(a1, b1) == e(a2, b2) via the single product
// e(−a1, b1)·e(a2, b2) == 1.
func (b *Backend) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	p1, p2 := unwrapG1(a1), unwrapG1(a2)
	q1, q2 := unwrapG2(b1), unwrapG2(b2)
	return samePairing(&p1, &q1, &p2, &q2)
}

// PrepareKey unwraps the server key's points once. Nothing is
// precomputed: both checks make their G2 lines on the fly, as every
// pairing on this backend does (docs/PAIRING.md, "Fixed-argument
// precomputation"). The method is part of backend.Backend for the
// Type-1 backend, whose prepared line schedules do pay.
func (b *Backend) PrepareKey(g, sg, sg2 curve.Point) backend.PreparedKey {
	return &blsPrepared{g: unwrapG1(g), sg: unwrapG1(sg), sg2: unwrapG2(sg2)}
}

type blsPrepared struct {
	g, sg g1Affine
	sg2   g2Affine
}

func (pk *blsPrepared) PairCheck(h, sig curve.Point) bool {
	ha, siga := unwrapG2(h), unwrapG2(sig)
	return samePairing(&pk.g, &siga, &pk.sg, &ha)
}

func (pk *blsPrepared) SameKey(ag, asg curve.Point) bool {
	// ê(aG, sG2) = ê(asG, G2): holds iff asg = a·sg for the a behind ag.
	aga, asga := unwrapG1(ag), unwrapG1(asg)
	return samePairing(&aga, &pk.sg2, &asga, &ctx.g2)
}

// coeffs returns z's twelve Fp coefficients in tower order, c0.b0.c0
// first and c1.b2.c1 last: the order of GTBytes and of a GT's limbs.
func (z *fe12) coeffs() [12]*fe {
	return [12]*fe{
		&z.c0.b0.c0, &z.c0.b0.c1, &z.c0.b1.c0, &z.c0.b1.c1, &z.c0.b2.c0, &z.c0.b2.c1,
		&z.c1.b0.c0, &z.c1.b0.c1, &z.c1.b1.c0, &z.c1.b1.c1, &z.c1.b2.c0, &z.c1.b2.c1,
	}
}

func wrapGT(v *fe12) backend.GT {
	c := v.coeffs()
	return backend.GT(flat(c[:]...))
}

// unwrapGT reads x back as an Fp12 value, panicking on any other width.
func unwrapGT(x backend.GT) (v fe12) {
	if len(x) != 12*feLimbs {
		panic(fmt.Sprintf("bls381: a %d-limb GT value, Fp12 has %d", len(x), 12*feLimbs))
	}
	c := v.coeffs()
	unflat(x, c[:]...)
	return v
}

// GTOne returns 1 ∈ Fp12.
func (b *Backend) GTOne() backend.GT {
	var one fe12
	one.setOne()
	return wrapGT(&one)
}

// GTEqual reports target-group equality.
func (b *Backend) GTEqual(x, y backend.GT) bool {
	xv, yv := unwrapGT(x), unwrapGT(y)
	return xv.equal(&yv)
}

// GTIsOne reports whether x is the identity.
func (b *Backend) GTIsOne(x backend.GT) bool {
	v := unwrapGT(x)
	return v.isOne()
}

// GTMul returns x·y.
func (b *Backend) GTMul(x, y backend.GT) backend.GT {
	xv, yv := unwrapGT(x), unwrapGT(y)
	xv.mul(&xv, &yv)
	return wrapGT(&xv)
}

// GTExpUnitary runs the signed-window ladder with conjugation as
// inversion; pairing outputs are unitary, which is the precondition.
func (b *Backend) GTExpUnitary(x backend.GT, k *big.Int) backend.GT {
	k = reduceScalar(k)
	v := unwrapGT(x)
	var out fe12
	out.expUnitary(&v, k)
	return wrapGT(&out)
}

// GTBytes returns the canonical 576-byte encoding: the twelve Fp
// coefficients in tower order, each 48 bytes big-endian.
func (b *Backend) GTBytes(x backend.GT) []byte {
	v := unwrapGT(x)
	out := make([]byte, 0, 12*feByteLen)
	for _, c := range v.coeffs() {
		out = c.bytes(out)
	}
	return out
}

// FieldPrime returns the 381-bit base-field prime p.
func (b *Backend) FieldPrime() *big.Int { return ctx.p }

// CofactorG1 returns the G1 cofactor h1 = (x−1)²/3.
func (b *Backend) CofactorG1() *big.Int { return ctx.h1 }
