package bls381

import "math/bits"

// Optimal-ate pairing for BLS12-381: e(P, Q) = f_{|x|,Q}(P)^((p¹²−1)/r)
// (conjugated before the final exponentiation because the BLS parameter
// x is negative — the dropped f^(p⁶+1) factor lies in Fp6 and dies in
// the final exponentiation, as do all the Fp2 line scalings below).
//
// The Miller loop runs on the M-twist: P is mapped to
// P' = (xP·w², yP·w³) ∈ E'(Fp12) so every line through twist points is
// the sparse element A + B·v + C·v·w with A, B, C ∈ Fp2. Line
// coefficients depend only on Q, so a fixed Q yields a reusable
// schedule (g2Prepared) and the per-P work is two Fp2-by-Fp scalings
// per step plus the sparse multiplication.

// lineCoeffs is one Miller-loop step: the line through the running
// point (and Q, on addition steps), with b and c still missing their
// xP / yP factors.
type lineCoeffs struct {
	a, b, c fe2
}

// g2Prepared is the precomputed line schedule of a fixed G2 point: 63
// doubling steps interleaved with 5 addition steps following |x|'s
// bits. Immutable after construction and safe for concurrent use.
type g2Prepared struct {
	lines []lineCoeffs
	inf   bool
}

// prepareG2 computes the line schedule for q.
func prepareG2(q *g2Affine) *g2Prepared {
	initCtx()
	if q.isInfinity() {
		return &g2Prepared{inf: true}
	}
	pp := &g2Prepared{lines: make([]lineCoeffs, 0, 68)}
	var r g2Jac
	r.fromAffine(q)
	for i := bits.Len64(xAbs) - 2; i >= 0; i-- {
		pp.lines = append(pp.lines, doubleStep(&r))
		if xAbs>>i&1 == 1 {
			pp.lines = append(pp.lines, addStep(&r, q))
		}
	}
	return pp
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

// millerLoop evaluates the product of Miller functions for the given
// pairs, sharing the f² squaring across pairs. Pairs with an infinite
// side contribute 1 and are skipped by the callers.
func millerLoop(ps []*g1Affine, qs []*g2Prepared) fe12 {
	initCtx()
	var f fe12
	f.setOne()
	idx := 0
	started := false
	for i := bits.Len64(xAbs) - 2; i >= 0; i-- {
		if started {
			f.sqr(&f)
		}
		for k := range ps {
			applyLine(&f, &qs[k].lines[idx], ps[k])
		}
		started = true
		idx++
		if xAbs>>i&1 == 1 {
			for k := range ps {
				applyLine(&f, &qs[k].lines[idx], ps[k])
			}
			idx++
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

// pairPrepared computes the reduced pairing e(P, Q) ∈ GT from Q's line
// schedule; infinity on either side yields the identity.
func pairPrepared(p *g1Affine, q *g2Prepared) fe12 {
	initCtx()
	var out fe12
	if p.isInfinity() || q.inf {
		out.setOne()
		return out
	}
	f := millerLoop([]*g1Affine{p}, []*g2Prepared{q})
	out.finalExp(&f)
	return out
}

// pairProduct computes ∏ e(Pᵢ, Qᵢ) with one shared Miller loop and one
// final exponentiation.
func pairProduct(ps []*g1Affine, qs []*g2Prepared) fe12 {
	initCtx()
	lps := make([]*g1Affine, 0, len(ps))
	lqs := make([]*g2Prepared, 0, len(qs))
	for i := range ps {
		if ps[i].isInfinity() || qs[i].inf {
			continue
		}
		lps = append(lps, ps[i])
		lqs = append(lqs, qs[i])
	}
	var out fe12
	if len(lps) == 0 {
		out.setOne()
		return out
	}
	f := millerLoop(lps, lqs)
	out.finalExp(&f)
	return out
}

// samePairing reports e(a1, b1) == e(a2, b2) via the product
// e(−a1, b1)·e(a2, b2) == 1: one Miller loop, one final exponentiation.
func samePairing(a1 *g1Affine, b1 *g2Prepared, a2 *g1Affine, b2 *g2Prepared) bool {
	var n1 g1Affine
	n1.neg(a1)
	out := pairProduct([]*g1Affine{&n1, a2}, []*g2Prepared{b1, b2})
	return out.isOne()
}
