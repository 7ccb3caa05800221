package bls381

import (
	"errors"
	"math/big"
)

// g1Affine is a point on E(Fp): y² = x³ + 4. The group G1 is the
// r-torsion of this curve. Infinity is flagged explicitly; the zero
// value is NOT a valid point (use g1Infinity).
type g1Affine struct {
	x, y fe
	inf  bool
}

// g1Jac is the Jacobian representation (X/Z², Y/Z³); Z = 0 encodes
// infinity. All group arithmetic runs here, converting to affine only
// at serialization boundaries.
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

// inSubgroup checks [r]P = O; called on every untrusted deserialize.
func (p *g1Affine) inSubgroup() bool {
	if p.inf {
		return true
	}
	var j g1Jac
	j.fromAffine(p)
	j.scalarMult(&j, ctx.r)
	return j.isInfinity()
}

func (j *g1Jac) isInfinity() bool { return j.z.isZero() }

func (j *g1Jac) setInfinity() {
	j.x.setOne()
	j.y.setOne()
	j.z.setZero()
}

func (j *g1Jac) fromAffine(p *g1Affine) {
	if p.inf {
		j.setInfinity()
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

func (j *g1Jac) set(q *g1Jac) { *j = *q }

func (j *g1Jac) neg(q *g1Jac) {
	j.x.set(&q.x)
	j.y.neg(&q.y)
	j.z.set(&q.z)
}

// double is the a = 0 Jacobian doubling (dbl-2009-l).
func (j *g1Jac) double(q *g1Jac) {
	if q.isInfinity() {
		j.set(q)
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
		j.set(q)
		return
	}
	if q.isInfinity() {
		j.set(p)
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
		j.setInfinity()
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
		j.set(p)
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
		j.setInfinity()
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

// scalarMult sets j = [k]q by 4-bit windowed double-and-add. k is
// reduced mod nothing: callers pass reduced scalars; negative k panics.
func (j *g1Jac) scalarMult(q *g1Jac, k *big.Int) {
	if k.Sign() < 0 {
		panic("bls381: negative scalar")
	}
	if k.Sign() == 0 || q.isInfinity() {
		j.setInfinity()
		return
	}
	// Window table: 1..15 multiples of q.
	var tbl [15]g1Jac
	tbl[0].set(q)
	for i := 1; i < 15; i++ {
		tbl[i].add(&tbl[i-1], q)
	}
	var acc g1Jac
	acc.setInfinity()
	bits := k.BitLen()
	top := (bits + 3) / 4 * 4
	for i := top - 4; i >= 0; i -= 4 {
		if !acc.isInfinity() {
			acc.double(&acc)
			acc.double(&acc)
			acc.double(&acc)
			acc.double(&acc)
		}
		w := k.Bit(i+3)<<3 | k.Bit(i+2)<<2 | k.Bit(i+1)<<1 | k.Bit(i)
		if w != 0 {
			acc.add(&acc, &tbl[w-1])
		}
	}
	j.set(&acc)
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
