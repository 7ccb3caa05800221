package bls381

import "math/big"

// fe2 is an element of Fp2 = Fp[i]/(i²+1), stored as c0 + c1·i. The
// tower continues with the non-residue ξ = 1 + i: Fp6 = Fp2[v]/(v³−ξ)
// and Fp12 = Fp6[w]/(w²−v). The zero value is zero.
type fe2 struct {
	c0, c1 fe
}

func (z *fe2) set(x *fe2)   { *z = *x }
func (z *fe2) setZero()     { *z = fe2{} }
func (z *fe2) setOne()      { z.c0.setOne(); z.c1.setZero() }
func (z *fe2) isZero() bool { return z.c0.isZero() && z.c1.isZero() }
func (z *fe2) isOne() bool  { return z.c0.isOne() && z.c1.isZero() }
func (z *fe2) equal(x *fe2) bool {
	return z.c0.equal(&x.c0) && z.c1.equal(&x.c1)
}

func (z *fe2) add(x, y *fe2) {
	z.c0.add(&x.c0, &y.c0)
	z.c1.add(&x.c1, &y.c1)
}

func (z *fe2) dbl(x *fe2) {
	z.c0.dbl(&x.c0)
	z.c1.dbl(&x.c1)
}

func (z *fe2) sub(x, y *fe2) {
	z.c0.sub(&x.c0, &y.c0)
	z.c1.sub(&x.c1, &y.c1)
}

func (z *fe2) neg(x *fe2) {
	z.c0.neg(&x.c0)
	z.c1.neg(&x.c1)
}

// conj sets z = x̄ = c0 − c1·i, which is also x^p (the Fp2 Frobenius).
func (z *fe2) conj(x *fe2) {
	z.c0.set(&x.c0)
	z.c1.neg(&x.c1)
}

// mul is the Karatsuba product: 3 base-field multiplications.
func (z *fe2) mul(x, y *fe2) {
	var t0, t1, t2, t3 fe
	t0.mul(&x.c0, &y.c0)
	t1.mul(&x.c1, &y.c1)
	t2.add(&x.c0, &x.c1)
	t3.add(&y.c0, &y.c1)
	t2.mul(&t2, &t3)
	t2.sub(&t2, &t0)
	z.c1.sub(&t2, &t1) // x0y1 + x1y0
	z.c0.sub(&t0, &t1) // x0y0 − x1y1
}

// sqr is the complex squaring: (c0+c1)(c0−c1) and 2·c0·c1.
func (z *fe2) sqr(x *fe2) {
	var t0, t1, t2 fe
	t0.add(&x.c0, &x.c1)
	t1.sub(&x.c0, &x.c1)
	t2.dbl(&x.c0)
	z.c0.mul(&t0, &t1)
	z.c1.mul(&t2, &x.c1)
}

// mulByFe scales both coordinates by a base-field element.
func (z *fe2) mulByFe(x *fe2, k *fe) {
	z.c0.mul(&x.c0, k)
	z.c1.mul(&x.c1, k)
}

// mulByNonRes multiplies by the sextic non-residue ξ = 1 + i:
// (c0 + c1 i)(1 + i) = (c0 − c1) + (c0 + c1)i.
func (z *fe2) mulByNonRes(x *fe2) {
	var t0 fe
	t0.sub(&x.c0, &x.c1)
	z.c1.add(&x.c0, &x.c1)
	z.c0.set(&t0)
}

// inv sets z = x⁻¹ via the norm: (c0 − c1 i)/(c0² + c1²). Panics on
// zero, matching the base field.
func (z *fe2) inv(x *fe2) {
	var n, t fe
	n.sqr(&x.c0)
	t.sqr(&x.c1)
	n.add(&n, &t)
	n.inv(&n)
	z.c0.mul(&x.c0, &n)
	n.neg(&n)
	z.c1.mul(&x.c1, &n)
}

// exp is plain square-and-multiply; used only for one-time constant
// derivation, never on the pairing hot path.
func (z *fe2) exp(x *fe2, e *big.Int) {
	var acc, base fe2
	base.set(x)
	acc.setOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.sqr(&acc)
		if e.Bit(i) == 1 {
			acc.mul(&acc, &base)
		}
	}
	z.set(&acc)
}

// normRoot returns n = √(c0² + c1²) ∈ Fp and whether it exists, which
// is whether z is a square in Fp2 (zero included): the residue test and
// the first exponentiation of sqrt in one.
func (z *fe2) normRoot() (n fe, ok bool) {
	var t fe
	n.sqr(&z.c0)
	t.sqr(&z.c1)
	n.add(&n, &t)
	ok = n.sqrt(&n)
	return n, ok
}

// sqrt sets z = √x for p ≡ 3 (mod 4) and reports success. Writes z
// only on success; z may alias x.
func (z *fe2) sqrt(x *fe2) bool {
	n, ok := x.normRoot()
	return ok && z.sqrtNorm(x, &n)
}

// sqrtNorm is sqrt given x's norm root n (n² = c0² + c1²): the root is
// x0 + c1/(2x0)·i with x0 = √d for whichever of d = (c0 ± n)/2 is a
// square. One exponentiation t = d^((p−3)/4) both tests d (d·t² = 1)
// and gives x0 = d·t and 1/(2x0) = t/2, no inversion; the other d costs
// a second. The root is the one the four-exponentiation form returned
// (TestFp2Sqrt pins it). Writes z only on success; z may alias x.
func (z *fe2) sqrtNorm(x *fe2, n *fe) bool {
	var d, t, s fe
	var c, sq fe2
	d.add(&x.c0, n)
	d.mul(&d, &ctx.half)
	if d.isZero() {
		// c0 = −n, so c1 = 0 and c0 is no square in Fp: the root is √−c0·i.
		t.neg(&x.c0)
		c.c1.exp(&t, &ctx.sqrtExp)
	} else {
		t.exp(&d, &ctx.isqrtExp)
		s.sqr(&t)
		if s.mul(&s, &d); !s.isOne() {
			d.sub(&x.c0, n)
			d.mul(&d, &ctx.half)
			t.exp(&d, &ctx.isqrtExp)
		}
		c.c0.mul(&d, &t)
		c.c1.mul(&x.c1, &t)
		c.c1.mul(&c.c1, &ctx.half)
	}
	// c² == x guards non-square inputs and a wrong n.
	if sq.sqr(&c); !sq.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

// sgn0 is the RFC 9380 sign of an Fp2 element (§4.1, m = 2).
func (z *fe2) sgn0() uint64 {
	s0 := z.c0.sgn0()
	if z.c0.isZero() {
		return z.c1.sgn0()
	}
	return s0
}

func (z *fe2) fromBig(a, b *big.Int) {
	z.c0.fromBig(a)
	z.c1.fromBig(b)
}

func (z *fe2) fromUint64(a, b uint64) {
	z.fromBig(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
}
