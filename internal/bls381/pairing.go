package bls381

import "math/bits"

// Optimal-ate pairing for BLS12-381: e(P, Q) = f_{|x|,Q}(P)^((p¹²−1)/r)
// (conjugated before the final exponentiation because the BLS parameter
// x is negative — the dropped f^(p⁶+1) factor lies in Fp6 and dies in
// the final exponentiation, as do all the Fp2 line scalings below).
//
// The Miller loop runs on the M-twist: P is mapped to
// P' = (xP·w², yP·w³) ∈ E'(Fp12) so every line through twist points is
// the sparse element A + B·v + C·v·w with A, B, C ∈ Fp2. Each line is
// applied the moment its step makes it: nothing is stored per Q, so a
// pairing stays off the heap (docs/PAIRING.md, "Fixed-argument
// precomputation", says why BLS12-381 has no prepared mode).

// lineCoeffs is one Miller-loop step: the line through the running
// point (and Q, on addition steps), with b and c still missing their
// xP / yP factors.
type lineCoeffs struct {
	a, b, c fe2
}

// doubleStep advances r ← 2r and returns the tangent line at the old r,
// scaled by 2YZ³·Z³ ∈ Fp2: A = 3X³ − 2Y², B = −3X²Z² (×xP), C = 2YZ³ (×yP).
func doubleStep(r *g2Jac) lineCoeffs {
	var x2, x3, y2, z2, z3 fe2
	x2.sqr(&r.x)
	x3.mul(&x2, &r.x)
	y2.sqr(&r.y)
	z2.sqr(&r.z)
	z3.mul(&z2, &r.z)

	var l lineCoeffs
	// A = 3X³ − 2Y²
	l.a.dbl(&x3)
	l.a.add(&l.a, &x3)
	var t fe2
	t.dbl(&y2)
	l.a.sub(&l.a, &t)
	// B = −3X²Z²
	l.b.mul(&x2, &z2)
	t.dbl(&l.b)
	l.b.add(&l.b, &t)
	l.b.neg(&l.b)
	// C = 2YZ³
	l.c.mul(&r.y, &z3)
	l.c.dbl(&l.c)

	// r ← 2r (a = 0 Jacobian doubling, sharing the squarings above).
	var bb, cc, d, e, f fe2
	bb.set(&y2)
	cc.sqr(&bb)
	d.add(&r.x, &bb)
	d.sqr(&d)
	d.sub(&d, &x2)
	d.sub(&d, &cc)
	d.dbl(&d)
	e.dbl(&x2)
	e.add(&e, &x2)
	f.sqr(&e)

	var nx, ny, nz fe2
	nx.sub(&f, &d)
	nx.sub(&nx, &d)
	nz.mul(&r.y, &r.z)
	nz.dbl(&nz)
	ny.sub(&d, &nx)
	ny.mul(&ny, &e)
	t.dbl(&cc)
	t.dbl(&t)
	t.dbl(&t)
	ny.sub(&ny, &t)
	r.x.set(&nx)
	r.y.set(&ny)
	r.z.set(&nz)
	return l
}

// addStep advances r ← r + q (mixed addition, q affine) and returns the
// chord line through the old r and q, scaled by Z³ ∈ Fp2:
// A = xQ·Y − yQ·X·Z, B = yQ·Z³ − Y (×xP), C = −(xQ·Z² − X)·Z (×yP).
func addStep(r *g2Jac, q *g2Affine) lineCoeffs {
	var z2, u2, s2, h, rr fe2
	z2.sqr(&r.z)
	u2.mul(&q.x, &z2)
	s2.mul(&q.y, &r.z)
	s2.mul(&s2, &z2)
	h.sub(&u2, &r.x)
	rr.sub(&s2, &r.y)

	var l lineCoeffs
	var t fe2
	l.a.mul(&q.x, &r.y)
	t.mul(&q.y, &r.x)
	t.mul(&t, &r.z)
	l.a.sub(&l.a, &t)
	l.b.set(&rr)
	l.c.mul(&h, &r.z)
	l.c.neg(&l.c)

	// r ← r + q.
	var hh, hhh, v fe2
	hh.sqr(&h)
	hhh.mul(&hh, &h)
	v.mul(&r.x, &hh)

	var nx, ny, nz fe2
	nx.sqr(&rr)
	nx.sub(&nx, &hhh)
	nx.sub(&nx, &v)
	nx.sub(&nx, &v)
	ny.sub(&v, &nx)
	ny.mul(&ny, &rr)
	t.mul(&r.y, &hhh)
	ny.sub(&ny, &t)
	nz.mul(&r.z, &h)
	r.x.set(&nx)
	r.y.set(&ny)
	r.z.set(&nz)
	return l
}

// millerArm is one pair of a Miller loop: its index into ps and qs, and
// the running multiple of Q that the line steps advance. It holds no
// pointer, so the arms never make the loop's arguments escape.
type millerArm struct {
	k int
	r g2Jac
}

// millerLoop evaluates the product of the Miller functions of the pairs
// (ps[k], qs[k]), sharing the f² squaring across them. A pair with an
// infinite side contributes 1. Up to two arms live on the stack.
func millerLoop(ps []*g1Affine, qs []*g2Affine) fe12 {
	initCtx()
	var buf [2]millerArm
	arms := buf[:0]
	for k := range ps {
		if ps[k].isInfinity() || qs[k].isInfinity() {
			continue
		}
		arms = append(arms, millerArm{k: k})
		arms[len(arms)-1].r.fromAffine(qs[k])
	}
	var f fe12
	f.setOne()
	top := bits.Len64(xAbs) - 2
	for i := top; i >= 0; i-- {
		if i != top {
			f.sqr(&f)
		}
		for j := range arms {
			l := doubleStep(&arms[j].r)
			applyLine(&f, &l, ps[arms[j].k])
		}
		if xAbs>>i&1 == 1 {
			for j := range arms {
				l := addStep(&arms[j].r, qs[arms[j].k])
				applyLine(&f, &l, ps[arms[j].k])
			}
		}
	}
	f.conj(&f) // x < 0
	return f
}

func applyLine(f *fe12, l *lineCoeffs, p *g1Affine) {
	var b, c fe2
	b.mulByFe(&l.b, &p.x)
	c.mulByFe(&l.c, &p.y)
	f.mulBySparse(f, &l.a, &b, &c)
}

// pairProduct computes ∏ e(Pᵢ, Qᵢ) with one shared Miller loop and one
// final exponentiation; infinity on either side of a pair contributes 1.
func pairProduct(ps []*g1Affine, qs []*g2Affine) fe12 {
	f := millerLoop(ps, qs)
	var out fe12
	out.finalExp(&f)
	return out
}

// pair computes the reduced pairing e(P, Q) ∈ GT.
func pair(p *g1Affine, q *g2Affine) fe12 {
	return pairProduct([]*g1Affine{p}, []*g2Affine{q})
}

// samePairing reports e(a1, b1) == e(a2, b2) via the product
// e(−a1, b1)·e(a2, b2) == 1: one Miller loop, one final exponentiation.
func samePairing(a1 *g1Affine, b1 *g2Affine, a2 *g1Affine, b2 *g2Affine) bool {
	var n1 g1Affine
	n1.neg(a1)
	out := pairProduct([]*g1Affine{&n1, a2}, []*g2Affine{b1, b2})
	return out.isOne()
}
