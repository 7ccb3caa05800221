package bls381

import (
	"errors"
	"math/big"
	"math/bits"
)

// g1Affine is a point on E(Fp): y² = x³ + 4. The group G1 is the
// r-torsion of this curve. Infinity is flagged explicitly; the zero
// value is NOT a valid point (use g1Infinity).
type g1Affine struct {
	x, y fe
	inf  bool
}

// g1Jac is the Jacobian representation (X/Z², Y/Z³); Z = 0 encodes
// infinity, so the zero value is the identity. All group arithmetic
// runs here, converting to affine only at serialization boundaries.
type g1Jac struct {
	x, y, z fe
}

func g1Infinity() g1Affine { return g1Affine{inf: true} }

func (p *g1Affine) isInfinity() bool { return p.inf }

func (p *g1Affine) equal(q *g1Affine) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.equal(&q.x) && p.y.equal(&q.y)
}

func (p *g1Affine) neg(q *g1Affine) {
	p.x.set(&q.x)
	p.y.neg(&q.y)
	p.inf = q.inf
}

// isOnCurve accepts infinity and checks y² = x³ + 4 otherwise.
func (p *g1Affine) isOnCurve() bool {
	if p.inf {
		return true
	}
	var lhs, rhs, four fe
	lhs.sqr(&p.y)
	rhs.sqr(&p.x)
	rhs.mul(&rhs, &p.x)
	four.fromBig(big.NewInt(4))
	rhs.add(&rhs, &four)
	return lhs.equal(&rhs)
}

// inSubgroup is Scott's test (ePrint 2021/1130), called on every
// untrusted deserialize: P ∈ G1 ⇔ φ(P) = −[x²]P, tested as
// [x²]P + φ(P) = O — mulByX twice, 128 sparse bits where [r]P walks
// 255. TestG1EndomorphismSubgroupCheck pins it to [r]P = O.
func (p *g1Affine) inSubgroup() bool {
	var j, s g1Jac
	j.fromAffine(p)
	s.mulByX(&j)
	s.mulByX(&s)
	j.phi(&j)
	s.add(&s, &j)
	return s.isInfinity()
}

func (j *g1Jac) isInfinity() bool { return j.z.isZero() }

func (j *g1Jac) fromAffine(p *g1Affine) {
	if p.inf {
		*j = g1Jac{}
		return
	}
	j.x.set(&p.x)
	j.y.set(&p.y)
	j.z.setOne()
}

func (j *g1Jac) toAffine() g1Affine {
	if j.isInfinity() {
		return g1Infinity()
	}
	var zi, zi2, zi3 fe
	zi.inv(&j.z)
	zi2.sqr(&zi)
	zi3.mul(&zi2, &zi)
	var p g1Affine
	p.x.mul(&j.x, &zi2)
	p.y.mul(&j.y, &zi3)
	return p
}

func (j *g1Jac) neg(q *g1Jac) {
	j.x.set(&q.x)
	j.y.neg(&q.y)
	j.z.set(&q.z)
}

// double is the a = 0 Jacobian doubling (dbl-2009-l).
func (j *g1Jac) double(q *g1Jac) {
	if q.isInfinity() {
		*j = *q
		return
	}
	var a, b, c, d, e, f fe
	a.sqr(&q.x)
	b.sqr(&q.y)
	c.sqr(&b)
	d.add(&q.x, &b)
	d.sqr(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.dbl(&d) // 2((X+B)² − A − C)
	e.dbl(&a)
	e.add(&e, &a) // 3A
	f.sqr(&e)

	var x3, y3, z3, t fe
	x3.sub(&f, &d)
	x3.sub(&x3, &d)
	z3.mul(&q.y, &q.z)
	z3.dbl(&z3)
	y3.sub(&d, &x3)
	y3.mul(&y3, &e)
	t.dbl(&c)
	t.dbl(&t)
	t.dbl(&t) // 8C
	y3.sub(&y3, &t)
	j.x.set(&x3)
	j.y.set(&y3)
	j.z.set(&z3)
}

// add is the general Jacobian addition (add-2007-bl shape), falling
// back to double when the operands coincide.
func (j *g1Jac) add(p, q *g1Jac) {
	if p.isInfinity() {
		*j = *q
		return
	}
	if q.isInfinity() {
		*j = *p
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r fe
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
		*j = g1Jac{}
		return
	}
	var hh, hhh, v fe
	hh.sqr(&h)
	hhh.mul(&hh, &h)
	v.mul(&u1, &hh)

	var x3, y3, z3, t fe
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

// addAffine is the mixed addition (Z2 = 1).
func (j *g1Jac) addAffine(p *g1Jac, q *g1Affine) {
	if q.inf {
		*j = *p
		return
	}
	if p.isInfinity() {
		j.fromAffine(q)
		return
	}
	var z1z1, u2, s2, h, r fe
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
		*j = g1Jac{}
		return
	}
	var hh, hhh, v fe
	hh.sqr(&h)
	hhh.mul(&hh, &h)
	v.mul(&p.x, &hh)

	var x3, y3, z3, t fe
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

// phi is the order-3 endomorphism (x, y) ↦ (βx, y): [−x²] on G1.
func (j *g1Jac) phi(q *g1Jac) {
	j.x.mul(&q.x, &ctx.beta)
	j.y, j.z = q.y, q.z
}

// glvDigits recodes k < r as k₀ + k₁·x², both digits < x² < 2¹²⁸
// (splitX's four base-|x| digits taken in pairs), as width-w NAFs.
func glvDigits(k *big.Int, w uint) (digits [2][]int8) {
	d := splitX(k)
	for i := range digits {
		hi, lo := bits.Mul64(d[2*i+1], xAbs)
		lo, c := bits.Add64(lo, d[2*i], 0)
		digits[i] = appendWNAF(make([]int8, 0, 129), lo, hi+c, w)
	}
	return digits
}

// mulEndo sets j = [k]q for q ∈ G1 and k < r by GLV: [k]q =
// k₀·q + k₁·(−φ(q)), two 128-bit digits on one doubling chain where the
// window ladder walks 255 bits, the second table the −φ-image of the
// first. Only members of G1 satisfy φ = [−x²].
func (j *g1Jac) mulEndo(q *g1Jac, k *big.Int) {
	var tbl [2][endoTable]g1Jac
	var acc, e g1Jac
	tbl[0][0] = *q
	e.double(q)
	for m := 1; m < endoTable; m++ {
		tbl[0][m].add(&tbl[0][m-1], &e)
	}
	for m := range tbl[1] {
		tbl[1][m].phi(&tbl[0][m])
		tbl[1][m].neg(&tbl[1][m])
	}
	digits := glvDigits(k, endoWindow)
	straus(digits[:], func() { acc.double(&acc) }, func(i int, d int8) {
		t := &tbl[i][max(d, -d)/2]
		if d < 0 {
			e.neg(t)
			t = &e
		}
		acc.add(&acc, t)
	})
	*j = acc
}

// mulByX sets j = [|x|]q by plain double-and-add over |x|'s weight-6
// bits, as g2Jac.mulByX.
func (j *g1Jac) mulByX(q *g1Jac) {
	acc := *q
	for i := bits.Len64(xAbs) - 2; i >= 0; i-- {
		acc.double(&acc)
		if xAbs>>i&1 == 1 {
			acc.add(&acc, q)
		}
	}
	*j = acc
}

// --- serialization (zcash compressed format, 48 bytes) ---------------

var errG1Decode = errors.New("bls381: invalid G1 encoding")

// marshalG1 appends the 48-byte compressed encoding: big-endian x with
// flag bits in the top byte (0x80 compressed, 0x40 infinity, 0x20 the
// lexicographically-larger y).
func marshalG1(dst []byte, p *g1Affine) []byte {
	if p.inf {
		var buf [feByteLen]byte
		buf[0] = 0xc0
		return append(dst, buf[:]...)
	}
	start := len(dst)
	dst = p.x.bytes(dst)
	flags := byte(0x80)
	if feIsLexLarger(&p.y) {
		flags |= 0x20
	}
	dst[start] |= flags
	return dst
}

// unmarshalG1 parses a compressed point, checking canonicality and the
// curve equation; subgroup membership is the caller's separate check.
func unmarshalG1(b []byte) (g1Affine, error) {
	if len(b) != feByteLen {
		return g1Affine{}, errG1Decode
	}
	flags := b[0] & 0xe0
	if flags&0x80 == 0 {
		return g1Affine{}, errG1Decode // only compressed points are valid here
	}
	var raw [feByteLen]byte
	copy(raw[:], b)
	raw[0] &^= 0xe0
	if flags&0x40 != 0 {
		// Infinity: sign bit must be clear and the payload all-zero.
		if flags&0x20 != 0 {
			return g1Affine{}, errG1Decode
		}
		for _, c := range raw {
			if c != 0 {
				return g1Affine{}, errG1Decode
			}
		}
		return g1Infinity(), nil
	}
	x, ok := feFromBytes(raw[:])
	if !ok {
		return g1Affine{}, errG1Decode
	}
	var rhs, four fe
	rhs.sqr(&x)
	rhs.mul(&rhs, &x)
	four.fromBig(big.NewInt(4))
	rhs.add(&rhs, &four)
	var y fe
	if !y.sqrt(&rhs) {
		return g1Affine{}, errG1Decode
	}
	if feIsLexLarger(&y) != (flags&0x20 != 0) {
		y.neg(&y)
	}
	return g1Affine{x: x, y: y}, nil
}

// feIsLexLarger reports y > −y as integers, i.e. y > (p−1)/2, which
// ctx.eulerExp holds as plain limbs.
func feIsLexLarger(y *fe) bool {
	t := y.plain()
	return feLess(&ctx.eulerExp, &t)
}
