package bls381

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// This file adapts the curve implementation to the backend.Backend
// interface. Points travel as curve.Point values whose Ext field holds
// an immutable affine point of the owning group; the big.Int X/Y slots
// stay nil. Unwrapping accepts the untagged identity (curve.Infinity()
// or a zero-value Point), so generic scheme code that starts a sum
// from curve.Infinity keeps working.

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

type g1Ext struct{ p g1Affine }

func (e *g1Ext) ExtBackend() string { return BackendName }
func (e *g1Ext) ExtGroup() int      { return 1 }
func (e *g1Ext) ExtEqual(o curve.ExtPoint) bool {
	q, ok := o.(*g1Ext)
	return ok && e.p.equal(&q.p)
}

type g2Ext struct{ p g2Affine }

func (e *g2Ext) ExtBackend() string { return BackendName }
func (e *g2Ext) ExtGroup() int      { return 2 }
func (e *g2Ext) ExtEqual(o curve.ExtPoint) bool {
	q, ok := o.(*g2Ext)
	return ok && e.p.equal(&q.p)
}

func wrapG1(p *g1Affine) curve.Point { return curve.NewExtPoint(&g1Ext{p: *p}, p.inf) }
func wrapG2(p *g2Affine) curve.Point { return curve.NewExtPoint(&g2Ext{p: *p}, p.inf) }

// unwrapG1 extracts the affine G1 point. Untagged points are accepted
// only as the identity; a tagged point of another backend or group is
// a programming error.
func unwrapG1(p curve.Point) g1Affine {
	if p.Ext == nil {
		if p.X == nil {
			return g1Infinity()
		}
		panic("bls381: Type-1 point passed to the bls12381 backend")
	}
	e, ok := p.Ext.(*g1Ext)
	if !ok {
		panic(fmt.Sprintf("bls381: G1 operation on a %s/G%d point", p.Ext.ExtBackend(), p.Ext.ExtGroup()))
	}
	return e.p
}

func unwrapG2(p curve.Point) g2Affine {
	if p.Ext == nil {
		if p.X == nil {
			return g2Infinity()
		}
		panic("bls381: Type-1 point passed to the bls12381 backend")
	}
	e, ok := p.Ext.(*g2Ext)
	if !ok {
		panic(fmt.Sprintf("bls381: G2 operation on a %s/G%d point", p.Ext.ExtBackend(), p.Ext.ExtGroup()))
	}
	return e.p
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
		inf := g2Infinity()
		return wrapG2(&inf)
	}
	inf := g1Infinity()
	return wrapG1(&inf)
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

// InSubgroup reports r-torsion membership (ψ-based for G2, φ-based for
// G1).
func (b *Backend) InSubgroup(g backend.Group, p curve.Point) bool {
	if g == backend.G2 {
		pa := unwrapG2(p)
		return pa.inSubgroup()
	}
	pa := unwrapG1(p)
	return pa.inSubgroup()
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
	v := pairPrepared(&pa, prepareG2(&qa))
	return &gtElem{v: v}
}

// PairProduct computes Π e(Pᵢ, Qᵢ) with one shared Miller loop and
// final exponentiation.
func (b *Backend) PairProduct(pairs []backend.PointPair) backend.GT {
	ps := make([]*g1Affine, len(pairs))
	qs := make([]*g2Prepared, len(pairs))
	for i, f := range pairs {
		pa := unwrapG1(f.P)
		qa := unwrapG2(f.Q)
		ps[i] = &pa
		qs[i] = prepareG2(&qa)
	}
	v := pairProduct(ps, qs)
	return &gtElem{v: v}
}

// SamePairing reports e(a1, b1) == e(a2, b2) via the single product
// e(−a1, b1)·e(a2, b2) == 1.
func (b *Backend) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	p1, p2 := unwrapG1(a1), unwrapG1(a2)
	q1, q2 := unwrapG2(b1), unwrapG2(b2)
	return samePairing(&p1, prepareG2(&q1), &p2, prepareG2(&q2))
}

// PrepareKey stores the G1 key points and precomputes the G2 line
// schedules of the generator and sg2 — the two fixed G2 arguments of
// the user-key well-formedness check, which is the hot prepared path
// on this backend (PairCheck's G2 arguments vary per call and are
// prepared on the fly).
func (b *Backend) PrepareKey(g, sg, sg2 curve.Point) backend.PreparedKey {
	ga, sga := unwrapG1(g), unwrapG1(sg)
	sg2a := unwrapG2(sg2)
	return &blsPrepared{
		g:    ga,
		sg:   sga,
		g2p:  prepareG2(&ctx.g2),
		sg2p: prepareG2(&sg2a),
	}
}

type blsPrepared struct {
	g, sg     g1Affine
	g2p, sg2p *g2Prepared
}

func (pk *blsPrepared) PairCheck(h, sig curve.Point) bool {
	ha, siga := unwrapG2(h), unwrapG2(sig)
	return samePairing(&pk.g, prepareG2(&siga), &pk.sg, prepareG2(&ha))
}

func (pk *blsPrepared) SameKey(ag, asg curve.Point) bool {
	// ê(aG, sG2) = ê(asG, G2): holds iff asg = a·sg for the a behind ag.
	aga, asga := unwrapG1(ag), unwrapG1(asg)
	return samePairing(&aga, pk.sg2p, &asga, pk.g2p)
}

// gtElem wraps an fe12 pairing value as an opaque backend.GT.
type gtElem struct{ v fe12 }

func asGT(x backend.GT) *gtElem {
	e, ok := x.(*gtElem)
	if !ok {
		panic("bls381: foreign GT element")
	}
	return e
}

// GTOne returns 1 ∈ Fp12.
func (b *Backend) GTOne() backend.GT {
	var one fe12
	one.setOne()
	return &gtElem{v: one}
}

// GTEqual reports target-group equality.
func (b *Backend) GTEqual(x, y backend.GT) bool { return asGT(x).v.equal(&asGT(y).v) }

// GTIsOne reports whether x is the identity.
func (b *Backend) GTIsOne(x backend.GT) bool { return asGT(x).v.isOne() }

// GTMul returns x·y.
func (b *Backend) GTMul(x, y backend.GT) backend.GT {
	var out fe12
	out.mul(&asGT(x).v, &asGT(y).v)
	return &gtElem{v: out}
}

// GTExpUnitary runs the signed-window ladder with conjugation as
// inversion; pairing outputs are unitary, which is the precondition.
func (b *Backend) GTExpUnitary(x backend.GT, k *big.Int) backend.GT {
	k = reduceScalar(k)
	var out fe12
	out.expUnitary(&asGT(x).v, k)
	return &gtElem{v: out}
}

// GTBytes returns the canonical 576-byte encoding: the twelve Fp
// coefficients in tower order (c0.b0.c0 first, c1.b2.c1 last), each
// 48 bytes big-endian.
func (b *Backend) GTBytes(x backend.GT) []byte {
	v := &asGT(x).v
	out := make([]byte, 0, 12*feByteLen)
	for _, c6 := range []*fe6{&v.c0, &v.c1} {
		for _, c2 := range []*fe2{&c6.b0, &c6.b1, &c6.b2} {
			out = c2.c0.bytes(out)
			out = c2.c1.bytes(out)
		}
	}
	return out
}

// fixedWindow is the wNAF width of the fixed-base table: the 64 odd
// multiples 1·P … 127·P, one add per 8 doublings on average.
const fixedWindow = 8

// g1Table stores the odd multiples (2i+1)·P in affine form so the
// ladder uses mixed addition (all of them ∞ for the identity). Built
// once, immutable afterwards.
type g1Table struct {
	odd []g1Affine
}

// PrecomputeBase builds the width-8 wNAF odd-multiples table for p ∈ G1.
func (b *Backend) PrecomputeBase(p curve.Point) backend.BaseTable {
	pa := unwrapG1(p)
	odd := make([]g1Jac, 1<<(fixedWindow-2)) // 1·P … 127·P
	odd[0].fromAffine(&pa)
	oddMultiples(odd)
	t := &g1Table{odd: make([]g1Affine, len(odd))}
	for i := range odd {
		t.odd[i] = odd[i].toAffine()
	}
	return t
}

// ScalarMultBase walks k's two GLV digits (glvDigits) over the width-8
// table, the second over its −φ-image: −φ(x, y) = (βx, −y) is one
// product per affine entry, so there is no second table.
func (b *Backend) ScalarMultBase(t backend.BaseTable, k *big.Int) curve.Point {
	tb, ok := t.(*g1Table)
	if !ok {
		panic("bls381: foreign base table")
	}
	var acc g1Jac
	digits := glvDigits(reduceScalar(k), fixedWindow)
	straus(digits[:], func() { acc.double(&acc) }, func(h int, d int8) {
		e := tb.odd[max(d, -d)/2]
		if h == 1 {
			e.x.mul(&e.x, &ctx.beta)
		}
		if (d < 0) != (h == 1) {
			e.y.neg(&e.y)
		}
		acc.addAffine(&acc, &e)
	})
	out := acc.toAffine()
	return wrapG1(&out)
}

// FieldPrime returns the 381-bit base-field prime p.
func (b *Backend) FieldPrime() *big.Int { return ctx.p }

// CofactorG1 returns the G1 cofactor h1 = (x−1)²/3.
func (b *Backend) CofactorG1() *big.Int { return ctx.h1 }
