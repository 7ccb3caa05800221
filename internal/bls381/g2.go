package bls381

import (
	"errors"
	"math/big"
	"math/bits"

	"timedrelease/internal/ff"
)

// g2Affine is a point on the sextic M-twist E'(Fp2): y² = x³ + 4(1+i).
// The group G2 is the r-torsion subgroup (index h2 in the twist).
type g2Affine struct {
	x, y fe2
	inf  bool
}

type g2Jac struct {
	x, y, z fe2
}

func g2Infinity() g2Affine { return g2Affine{inf: true} }

func (p *g2Affine) isInfinity() bool { return p.inf }

func (p *g2Affine) equal(q *g2Affine) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.equal(&q.x) && p.y.equal(&q.y)
}

func (p *g2Affine) neg(q *g2Affine) {
	p.x.set(&q.x)
	p.y.neg(&q.y)
	p.inf = q.inf
}

// twistRHS returns g(x) = x³ + 4(1+i), the right side of the twist
// equation.
func twistRHS(x *fe2) (g fe2) {
	var b fe2
	b.fromUint64(4, 4)
	g.sqr(x)
	g.mul(&g, x)
	g.add(&g, &b)
	return g
}

func (p *g2Affine) isOnCurve() bool {
	if p.inf {
		return true
	}
	var lhs fe2
	lhs.sqr(&p.y)
	rhs := twistRHS(&p.x)
	return lhs.equal(&rhs)
}

// inSubgroup uses the ψ criterion: Q ∈ G2 ⇔ ψ(Q) = [x]Q, with x < 0
// tested as [|x|]Q + ψ(Q) = O — a 64-bit ladder, no inversion to
// normalise. TestPsiSubgroupCheck pins it to the definitional [r]Q = O.
func (p *g2Affine) inSubgroup() bool {
	var q, s g2Jac
	q.fromAffine(p)
	s.mulByX(&q)
	q.psi(&q)
	s.add(&s, &q)
	return s.isInfinity()
}

func (j *g2Jac) isInfinity() bool { return j.z.isZero() }

func (j *g2Jac) fromAffine(p *g2Affine) {
	if p.inf {
		*j = g2Jac{}
		return
	}
	j.x.set(&p.x)
	j.y.set(&p.y)
	j.z.setOne()
}

func (j *g2Jac) toAffine() g2Affine {
	if j.isInfinity() {
		return g2Infinity()
	}
	var zi, zi2, zi3 fe2
	zi.inv(&j.z)
	zi2.sqr(&zi)
	zi3.mul(&zi2, &zi)
	var p g2Affine
	p.x.mul(&j.x, &zi2)
	p.y.mul(&j.y, &zi3)
	return p
}

func (j *g2Jac) neg(q *g2Jac) {
	j.x.set(&q.x)
	j.y.neg(&q.y)
	j.z.set(&q.z)
}

func (j *g2Jac) double(q *g2Jac) {
	if q.isInfinity() {
		*j = *q
		return
	}
	var a, b, c, d, e, f fe2
	a.sqr(&q.x)
	b.sqr(&q.y)
	c.sqr(&b)
	d.add(&q.x, &b)
	d.sqr(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.dbl(&d)
	e.dbl(&a)
	e.add(&e, &a)
	f.sqr(&e)

	var x3, y3, z3, t fe2
	x3.sub(&f, &d)
	x3.sub(&x3, &d)
	z3.mul(&q.y, &q.z)
	z3.dbl(&z3)
	y3.sub(&d, &x3)
	y3.mul(&y3, &e)
	t.dbl(&c)
	t.dbl(&t)
	t.dbl(&t)
	y3.sub(&y3, &t)
	j.x.set(&x3)
	j.y.set(&y3)
	j.z.set(&z3)
}

func (j *g2Jac) add(p, q *g2Jac) {
	if p.isInfinity() {
		*j = *q
		return
	}
	if q.isInfinity() {
		*j = *p
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r fe2
	z1z1.sqr(&p.z)
	z2z2.sqr(&q.z)
	u1.mul(&p.x, &z2z2)
	u2.mul(&q.x, &z1z1)
	s1.mul(&p.y, &q.z)
	s1.mul(&s1, &z2z2)
	s2.mul(&q.y, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &u1)
	r.sub(&s2, &s1)
	if h.isZero() {
		if r.isZero() {
			j.double(p)
			return
		}
		*j = g2Jac{}
		return
	}
	var hh, hhh, v fe2
	hh.sqr(&h)
	hhh.mul(&hh, &h)
	v.mul(&u1, &hh)

	var x3, y3, z3, t fe2
	x3.sqr(&r)
	x3.sub(&x3, &hhh)
	x3.sub(&x3, &v)
	x3.sub(&x3, &v)
	y3.sub(&v, &x3)
	y3.mul(&y3, &r)
	t.mul(&s1, &hhh)
	y3.sub(&y3, &t)
	z3.mul(&p.z, &q.z)
	z3.mul(&z3, &h)
	j.x.set(&x3)
	j.y.set(&y3)
	j.z.set(&z3)
}

func (j *g2Jac) addAffine(p *g2Jac, q *g2Affine) {
	if q.inf {
		*j = *p
		return
	}
	if p.isInfinity() {
		j.fromAffine(q)
		return
	}
	var z1z1, u2, s2, h, r fe2
	z1z1.sqr(&p.z)
	u2.mul(&q.x, &z1z1)
	s2.mul(&q.y, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &p.x)
	r.sub(&s2, &p.y)
	if h.isZero() {
		if r.isZero() {
			j.double(p)
			return
		}
		*j = g2Jac{}
		return
	}
	var hh, hhh, v fe2
	hh.sqr(&h)
	hhh.mul(&hh, &h)
	v.mul(&p.x, &hh)

	var x3, y3, z3, t fe2
	x3.sqr(&r)
	x3.sub(&x3, &hhh)
	x3.sub(&x3, &v)
	x3.sub(&x3, &v)
	y3.sub(&v, &x3)
	y3.mul(&y3, &r)
	t.mul(&p.y, &hhh)
	y3.sub(&y3, &t)
	z3.mul(&p.z, &h)
	j.x.set(&x3)
	j.y.set(&y3)
	j.z.set(&z3)
}

// mulEndo sets j = [k]q for q ∈ G2 and k < r by Galbraith–Lin–Scott:
// with u = |x|, [u]q = −ψ(q) on G2, so k's base-u digits kᵢ (splitX)
// give [k]q = Σ kᵢ·(−ψ)ⁱ(q) — one 64-step doubling chain where the
// window ladder walks 255, the tables of (−ψ)ⁱ(q) the −ψ-images of q's
// odd multiples. Only members of G2 satisfy ψ = [x].
func (j *g2Jac) mulEndo(q *g2Jac, k *big.Int) {
	var tbl [4][endoTable]g2Jac
	var buf [4][65]int8
	var digits [4][]int8
	var acc, e g2Jac
	for i, d := range splitX(k) {
		digits[i] = ff.AppendWNAF(buf[i][:0], []uint64{d}, endoWindow)
	}
	tbl[0][0] = *q
	e.double(q)
	for m := 1; m < endoTable; m++ {
		tbl[0][m].add(&tbl[0][m-1], &e)
	}
	for i := 1; i < len(tbl); i++ {
		for m := range tbl[i] {
			tbl[i][m].psi(&tbl[i-1][m])
			tbl[i][m].neg(&tbl[i][m])
		}
	}
	ff.Straus(digits[:], func() { acc.double(&acc) }, func(i int, d int8) {
		t := &tbl[i][max(d, -d)/2]
		if d < 0 {
			e.neg(t)
			t = &e
		}
		acc.add(&acc, t)
	})
	*j = acc
}

// psi is the untwist-Frobenius-twist endomorphism; on G2 it acts as
// multiplication by x (the BLS parameter).
func (j *g2Jac) psi(q *g2Jac) {
	j.x.conj(&q.x)
	j.x.mul(&j.x, &ctx.psiX)
	j.y.conj(&q.y)
	j.y.mul(&j.y, &ctx.psiY)
	j.z.conj(&q.z)
}

// mulByX sets j = [|x|]q by plain double-and-add: |x| has Hamming
// weight 6, five additions where a window table alone is 14.
func (j *g2Jac) mulByX(q *g2Jac) {
	acc := *q
	for i := bits.Len64(xAbs) - 2; i >= 0; i-- {
		acc.double(&acc)
		if xAbs>>i&1 == 1 {
			acc.add(&acc, q)
		}
	}
	*j = acc
}

// clearCofactor maps a twist point into G2 the Budroni–Pintore way
// (RFC 9380 App. G.3): [x²−x−1]P + [x−1]ψ(P) + ψ²(2P) = [h_eff]P with
// h_eff = 3(x²−1)·h2 — two 64-bit ladders and three ψ where the plain
// cofactor ladder walks 507 bits. TestClearCofactor pins the identity.
func (j *g2Jac) clearCofactor(p *g2Jac) {
	var t1, t2, t3 g2Jac
	t1.mulByX(p) // −[x]P
	t2.psi(p)
	t2.neg(&t2) // −ψ(P)
	t3.double(p)
	t3.psi(&t3)
	t3.psi(&t3)
	t3.add(&t3, &t2)
	t3.add(&t3, &t1) // ψ²(2P) − ψ(P) − [x]P
	t2.add(&t2, &t1)
	t2.mulByX(&t2) // [x]([x]P + ψ(P))
	t3.add(&t3, &t2)
	t2.neg(p)
	j.add(&t3, &t2)
}

// --- serialization (zcash compressed format, 96 bytes) ---------------

var errG2Decode = errors.New("bls381: invalid G2 encoding")

const g2ByteLen = 2 * feByteLen

// marshalG2 appends the 96-byte compressed encoding: x.c1 ‖ x.c0
// big-endian with flags in the leading byte.
func marshalG2(dst []byte, p *g2Affine) []byte {
	if p.inf {
		var buf [g2ByteLen]byte
		buf[0] = 0xc0
		return append(dst, buf[:]...)
	}
	start := len(dst)
	dst = p.x.c1.bytes(dst)
	dst = p.x.c0.bytes(dst)
	flags := byte(0x80)
	if fe2IsLexLarger(&p.y) {
		flags |= 0x20
	}
	dst[start] |= flags
	return dst
}

func unmarshalG2(b []byte) (g2Affine, error) {
	if len(b) != g2ByteLen {
		return g2Affine{}, errG2Decode
	}
	flags := b[0] & 0xe0
	if flags&0x80 == 0 {
		return g2Affine{}, errG2Decode
	}
	var raw [g2ByteLen]byte
	copy(raw[:], b)
	raw[0] &^= 0xe0
	if flags&0x40 != 0 {
		if flags&0x20 != 0 {
			return g2Affine{}, errG2Decode
		}
		for _, c := range raw {
			if c != 0 {
				return g2Affine{}, errG2Decode
			}
		}
		return g2Infinity(), nil
	}
	c1, ok := feFromBytes(raw[:feByteLen])
	if !ok {
		return g2Affine{}, errG2Decode
	}
	c0, ok := feFromBytes(raw[feByteLen:])
	if !ok {
		return g2Affine{}, errG2Decode
	}
	x := fe2{c0: c0, c1: c1}
	rhs := twistRHS(&x)
	var y fe2
	if !y.sqrt(&rhs) {
		return g2Affine{}, errG2Decode
	}
	if fe2IsLexLarger(&y) != (flags&0x20 != 0) {
		y.neg(&y)
	}
	return g2Affine{x: x, y: y}, nil
}

// fe2IsLexLarger reports y > −y comparing elements as c1·p + c0.
func fe2IsLexLarger(y *fe2) bool {
	if !y.c1.isZero() {
		return feIsLexLarger(&y.c1)
	}
	return feIsLexLarger(&y.c0)
}
