package bls381

import (
	"math/big"
	"math/bits"

	"timedrelease/internal/ff"
)

// fe12 is an element of Fp12 = Fp6[w]/(w² − v), stored c0 + c1·w.
// Pairing values (GT elements) are unitary fe12s: after the final
// exponentiation f^(p⁶−1) holds, so f⁻¹ = f̄ (the w-conjugate) and the
// cheap cyclotomic squaring applies.
type fe12 struct {
	c0, c1 fe6
}

func (z *fe12) set(x *fe12) { *z = *x }
func (z *fe12) setOne()     { z.c0.setOne(); z.c1.setZero() }
func (z *fe12) isOne() bool {
	return z.c0.b0.isOne() && z.c0.b1.isZero() && z.c0.b2.isZero() && z.c1.isZero()
}
func (z *fe12) isZero() bool { return z.c0.isZero() && z.c1.isZero() }
func (z *fe12) equal(x *fe12) bool {
	return z.c0.equal(&x.c0) && z.c1.equal(&x.c1)
}

// conj sets z = c0 − c1·w, which equals x^(p⁶) and hence x⁻¹ for
// unitary x.
func (z *fe12) conj(x *fe12) {
	z.c0.set(&x.c0)
	z.c1.neg(&x.c1)
}

// mul is the Karatsuba product: 3 Fp6 multiplications.
func (z *fe12) mul(x, y *fe12) {
	var t0, t1, t2, s fe6
	t0.mul(&x.c0, &y.c0)
	t1.mul(&x.c1, &y.c1)
	t2.add(&x.c0, &x.c1)
	s.add(&y.c0, &y.c1)
	t2.mul(&t2, &s)
	t2.sub(&t2, &t0)
	t2.sub(&t2, &t1)
	t1.mulByV(&t1)
	z.c0.add(&t0, &t1)
	z.c1.set(&t2)
}

// sqr is the complex squaring: c0' = (c0+c1)(c0+v·c1) − t − v·t,
// c1' = 2t with t = c0·c1 (2 Fp6 multiplications).
func (z *fe12) sqr(x *fe12) {
	var t, u, s fe6
	t.mul(&x.c0, &x.c1)
	u.add(&x.c0, &x.c1)
	s.mulByV(&x.c1)
	s.add(&s, &x.c0)
	u.mul(&u, &s)
	u.sub(&u, &t)
	s.mulByV(&t)
	u.sub(&u, &s)
	z.c0.set(&u)
	z.c1.dbl(&t)
}

// inv inverts via the norm to Fp6: (c0 + c1 w)⁻¹ = (c0 − c1 w)/(c0² − v·c1²).
func (z *fe12) inv(x *fe12) {
	var n, t fe6
	n.sqr(&x.c0)
	t.sqr(&x.c1)
	t.mulByV(&t)
	n.sub(&n, &t)
	n.inv(&n)
	z.c0.mul(&x.c0, &n)
	n.neg(&n)
	z.c1.mul(&x.c1, &n)
}

// mulBySparse multiplies by a Miller-loop line value ℓ = A + B·v + C·v·w,
// i.e. ℓ0 = A + Bv (Fp6 coefficients (A,B,0)) and ℓ1 = Cv ((0,C,0)).
// Karatsuba over the w arm: 2 sparse-01 products and 1 sparse-1 product.
func (z *fe12) mulBySparse(x *fe12, a, b, c *fe2) {
	var t0, t1, t2, s fe6
	t0.mulBy01(&x.c0, a, b)
	t1.mulBy1(&x.c1, c)
	s.add(&x.c0, &x.c1)
	var bc fe2
	bc.add(b, c)
	t2.mulBy01(&s, a, &bc)
	t2.sub(&t2, &t0)
	t2.sub(&t2, &t1)
	t1.mulByV(&t1)
	z.c0.add(&t0, &t1)
	z.c1.set(&t2)
}

// frob sets z = x^p. The Fp2 coefficients conjugate; the basis elements
// pick up the precomputed sixth-root-of-ξ powers: v^p = γ2·v,
// (v²)^p = γ3·v², w^p = γ1·w.
func (z *fe12) frob(x *fe12) {
	var a, b fe6
	a.b0.conj(&x.c0.b0)
	a.b1.conj(&x.c0.b1)
	a.b1.mul(&a.b1, &ctx.gamma2)
	a.b2.conj(&x.c0.b2)
	a.b2.mul(&a.b2, &ctx.gamma4)

	b.b0.conj(&x.c1.b0)
	b.b1.conj(&x.c1.b1)
	b.b1.mul(&b.b1, &ctx.gamma2)
	b.b2.conj(&x.c1.b2)
	b.b2.mul(&b.b2, &ctx.gamma4)
	b.mulByFe2(&b, &ctx.gamma1)

	z.c0.set(&a)
	z.c1.set(&b)
}

// frobN applies frob n times; n is tiny (≤ 3) so repeated application
// beats carrying extra precomputed coefficient tables.
func (z *fe12) frobN(x *fe12, n int) {
	z.set(x)
	for i := 0; i < n; i++ {
		z.frob(z)
	}
}

// cyclotomicSqr is the Granger–Scott squaring for elements of the
// cyclotomic subgroup (valid after the easy part of the final
// exponentiation). It is ~3x cheaper than the generic sqr and is pinned
// against it by TestCyclotomicSqrMatchesGeneric and FuzzFp12Arith.
//
// Coefficient naming: x = (x0 + x1 v + x2 v²) + (x3 + x4 v + x5 v²)w.
func (z *fe12) cyclotomicSqr(x *fe12) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 fe2

	t0.sqr(&x.c1.b1) // x4²
	t1.sqr(&x.c0.b0) // x0²
	t6.add(&x.c1.b1, &x.c0.b0)
	t6.sqr(&t6)
	t6.sub(&t6, &t0)
	t6.sub(&t6, &t1) // 2·x4·x0

	t2.sqr(&x.c0.b2) // x2²
	t3.sqr(&x.c1.b0) // x3²
	t7.add(&x.c0.b2, &x.c1.b0)
	t7.sqr(&t7)
	t7.sub(&t7, &t2)
	t7.sub(&t7, &t3) // 2·x2·x3

	t4.sqr(&x.c1.b2) // x5²
	t5.sqr(&x.c0.b1) // x1²
	t8.add(&x.c1.b2, &x.c0.b1)
	t8.sqr(&t8)
	t8.sub(&t8, &t4)
	t8.sub(&t8, &t5)
	t8.mulByNonRes(&t8) // 2·x5·x1·ξ

	t0.mulByNonRes(&t0)
	t0.add(&t0, &t1) // ξ·x4² + x0²
	t2.mulByNonRes(&t2)
	t2.add(&t2, &t3) // ξ·x2² + x3²
	t4.mulByNonRes(&t4)
	t4.add(&t4, &t5) // ξ·x5² + x1²

	var r fe12
	r.c0.b0.sub(&t0, &x.c0.b0)
	r.c0.b0.dbl(&r.c0.b0)
	r.c0.b0.add(&r.c0.b0, &t0)

	r.c0.b1.sub(&t2, &x.c0.b1)
	r.c0.b1.dbl(&r.c0.b1)
	r.c0.b1.add(&r.c0.b1, &t2)

	r.c0.b2.sub(&t4, &x.c0.b2)
	r.c0.b2.dbl(&r.c0.b2)
	r.c0.b2.add(&r.c0.b2, &t4)

	r.c1.b0.add(&t8, &x.c1.b0)
	r.c1.b0.dbl(&r.c1.b0)
	r.c1.b0.add(&r.c1.b0, &t8)

	r.c1.b1.add(&t6, &x.c1.b1)
	r.c1.b1.dbl(&r.c1.b1)
	r.c1.b1.add(&r.c1.b1, &t6)

	r.c1.b2.add(&t7, &x.c1.b2)
	r.c1.b2.dbl(&r.c1.b2)
	r.c1.b2.add(&r.c1.b2, &t7)

	z.set(&r)
}

// expByX sets z = x^u where u = BLS parameter x (negative): square-and-
// multiply over |x|'s 64 bits with cyclotomic squarings, then conjugate.
// x must be in the cyclotomic subgroup.
func (z *fe12) expByX(x *fe12) {
	var acc fe12
	acc.set(x)
	for i := bits.Len64(xAbs) - 2; i >= 0; i-- {
		acc.cyclotomicSqr(&acc)
		if xAbs>>i&1 == 1 {
			acc.mul(&acc, x)
		}
	}
	z.conj(&acc)
}

// expUnitary sets z = x^k for unitary x and 0 ≤ k, walking k's width-5
// NAF over the odd powers x … x¹⁵ (conjugation gives free inverses) with
// cyclotomic squarings, from the first nonzero digit on. This is the GT
// exponentiation behind Encryptor.
func (z *fe12) expUnitary(x *fe12, k *big.Int) {
	var odd [8]fe12
	var x2, acc fe12
	odd[0].set(x)
	x2.cyclotomicSqr(x)
	for i := 1; i < len(odd); i++ {
		odd[i].mul(&odd[i-1], &x2)
	}
	acc.setOne()
	started := false
	ff.Straus([][]int8{ff.AppendWNAF(nil, k, 5)}, func() {
		if started {
			acc.cyclotomicSqr(&acc)
		}
	}, func(_ int, d int8) {
		t := odd[max(d, -d)/2]
		if d < 0 {
			t.conj(&t)
		}
		if started {
			acc.mul(&acc, &t)
		} else {
			acc, started = t, true
		}
	})
	z.set(&acc)
}

// finalExp maps a Miller-loop output to the pairing group GT:
// f^((p¹²−1)/r). Easy part f^((p⁶−1)(p²+1)) (one inversion, one
// Frobenius-squared), then the hard part via the verified base-p
// decomposition 3(p⁴−p²+1)/r = λ0 + λ1 p + λ2 p² + λ3 p³ with
// λ3 = (x−1)², λ2 = λ3·x, λ1 = λ2·x − λ3, λ0 = λ1·x + 3 — computing a
// fixed cube of the reduced pairing, which is its own valid pairing
// (bilinear, non-degenerate since 3 ∤ r).
func (z *fe12) finalExp(x *fe12) {
	// Easy part.
	var f, t fe12
	t.inv(x)
	f.conj(x)
	f.mul(&f, &t) // f^(p⁶−1)
	t.frobN(&f, 2)
	f.mul(&f, &t) // …^(p²+1); f is now cyclotomic

	// Hard part (Ghammam–Fouotsa style chain on the λ decomposition).
	var t1, t2, b, c, d fe12
	t1.expByX(&f)
	t.conj(&f)
	t1.mul(&t1, &t) // f^(x−1)
	t2.expByX(&t1)
	t.conj(&t1)
	t2.mul(&t2, &t) // f^((x−1)²) = f^λ3
	b.expByX(&t2)   // f^λ2
	c.expByX(&b)
	t.conj(&t2)
	c.mul(&c, &t) // f^λ1
	d.expByX(&c)
	var f3 fe12
	f3.sqr(&f)
	f3.mul(&f3, &f)
	d.mul(&d, &f3) // f^λ0

	var acc fe12
	acc.frobN(&c, 1)
	acc.mul(&acc, &d)
	t.frobN(&b, 2)
	acc.mul(&acc, &t)
	t.frobN(&t2, 3)
	acc.mul(&acc, &t)
	z.set(&acc)
}
