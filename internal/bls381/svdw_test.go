package bls381

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// svdwMap maps one u, for tests that want a single uncleared twist
// point: paired with itself, the shared inversion inverts tv3².
func svdwMap(u *fe2) g2Affine { return svdwMaps(u, u)[0] }

// The square root, residue tests and map as they were before the
// norm root was shared: four exponentiations per fe2.sqrt, an Euler
// exponentiation per residue test and one inversion per map. They are
// the oracles TestFp2Sqrt and TestSvdwMatchesParent hold the production
// forms to, bit for bit.

// isResidue reports whether z is a square in Fp (true for zero).
func (z *fe) isResidue() bool {
	if z.isZero() {
		return true
	}
	var t fe
	t.exp(z, &ctx.eulerExp)
	return t.isOne()
}

// isResidue reports whether x is a square in Fp2: x is a square iff
// its norm c0² + c1² is a square in Fp.
func (z *fe2) isResidue() bool {
	var n, t fe
	n.sqr(&z.c0)
	t.sqr(&z.c1)
	n.add(&n, &t)
	return n.isResidue()
}

func (z *fe2) sqrtFourExp(x *fe2) bool {
	if x.isZero() {
		z.setZero()
		return true
	}
	var n, t, d, x0, x1 fe
	n.sqr(&x.c0)
	t.sqr(&x.c1)
	n.add(&n, &t)
	if !n.sqrt(&n) {
		return false
	}
	d.add(&x.c0, &n)
	d.mul(&d, &ctx.half)
	if !d.isResidue() {
		d.sub(&x.c0, &n)
		d.mul(&d, &ctx.half)
	}
	if !x0.sqrt(&d) {
		return false
	}
	if x0.isZero() {
		if !x.c1.isZero() {
			return false
		}
		var m fe
		m.neg(&x.c0)
		if !x1.sqrt(&m) {
			return false
		}
		z.c0.setZero()
		z.c1.set(&x1)
		return true
	}
	t.dbl(&x0)
	t.inv(&t)
	x1.mul(&x.c1, &t)
	var c fe2
	c.c0.set(&x0)
	c.c1.set(&x1)
	var s fe2
	s.sqr(&c)
	if !s.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

func svdwMapParent(u *fe2) g2Affine {
	initCtx()
	one := fe2{}
	one.setOne()

	var tv1, tv2, tv3, tv4 fe2
	tv1.sqr(u)
	tv1.mul(&tv1, &ctx.svdwC1)
	tv2.add(&one, &tv1)
	tv1.sub(&one, &tv1)
	tv3.mul(&tv1, &tv2)
	if !tv3.isZero() {
		tv3.inv(&tv3)
	}
	tv4.mul(u, &tv1)
	tv4.mul(&tv4, &tv3)
	tv4.mul(&tv4, &ctx.svdwC3)

	var x1 fe2
	x1.sub(&ctx.svdwC2, &tv4)
	gx1 := twistRHS(&x1)
	e1 := gx1.isResidue()

	var x2 fe2
	x2.add(&ctx.svdwC2, &tv4)
	gx2 := twistRHS(&x2)
	e2 := !e1 && gx2.isResidue()

	var x3 fe2
	x3.sqr(&tv2)
	x3.mul(&x3, &tv3)
	x3.sqr(&x3)
	x3.mul(&x3, &ctx.svdwC4)
	x3.add(&x3, &ctx.svdwZ)

	var x fe2
	x.set(&x3)
	if e1 {
		x.set(&x1)
	} else if e2 {
		x.set(&x2)
	}
	var y fe2
	if gx := twistRHS(&x); !y.sqrtFourExp(&gx) {
		panic("bls381: svdw produced a non-square g(x)")
	}
	if u.sgn0() != y.sgn0() {
		y.neg(&y)
	}
	return g2Affine{x: x, y: y}
}

// exceptionalU returns u with tv3 = (1 − c1u²)(1 + c1u²) = 0: square
// roots of 1/c1 and −1/c1, both squares in Fp2 (norm 1/25).
func exceptionalU(t testing.TB) []fe2 {
	initCtx()
	var inv, m, one fe2
	inv.inv(&ctx.svdwC1)
	m.neg(&inv)
	one.setOne()
	var us []fe2
	for _, v := range []fe2{inv, m} {
		var u, tv1, tv2 fe2
		if !u.sqrt(&v) {
			t.Fatalf("%v is not a square", v.toRef())
		}
		tv1.sqr(&u)
		tv1.mul(&tv1, &ctx.svdwC1)
		tv2.add(&one, &tv1)
		tv1.sub(&one, &tv1)
		if tv1.mul(&tv1, &tv2); !tv1.isZero() {
			t.Fatalf("u = %v does not zero tv3", u.toRef())
		}
		us = append(us, u)
	}
	return us
}

// TestSvdwMatchesParent holds the two-at-a-time map (shared inversion,
// norm roots as residue tests, two-exponentiation square root) to the
// parent's one-at-a-time map on 10⁴ seeded u (10³ under -short or
// -race), each paired with the next, plus u = 0 and the exceptional
// tv3 = 0 inputs paired with each other and with ordinary u in both
// orders — the cases where Montgomery's trick must fall back to inv0.
func TestSvdwMatchesParent(t *testing.T) {
	n := 10000
	if testing.Short() || raceEnabled {
		n = 1000
	}
	initCtx()
	rng := mrand.New(mrand.NewSource(9380))
	var ordinary fe2
	ordinary.fromUint64(7, 11)
	us := append([]fe2{{}, ordinary}, exceptionalU(t)...)
	edges := len(us)
	for i := 0; i < n; i++ {
		var u fe2
		if u.fromUint64(rng.Uint64(), rng.Uint64()); i%2 == 1 {
			u.fromBig(new(big.Int).Rand(rng, ctx.p), new(big.Int).Rand(rng, ctx.p))
		}
		us = append(us, u)
	}
	check := func(a, b *fe2) {
		t.Helper()
		got := svdwMaps(a, b)
		for i, u := range []*fe2{a, b} {
			if want := svdwMapParent(u); !got[i].equal(&want) {
				t.Fatalf("svdwMaps(%v, %v)[%d] differs from the parent's map", a.toRef(), b.toRef(), i)
			}
			if !got[i].isOnCurve() {
				t.Fatalf("svdwMaps(%v, %v)[%d] is off the twist", a.toRef(), b.toRef(), i)
			}
		}
	}
	for i := range us[:edges] {
		for j := range us[:edges] {
			check(&us[i], &us[j])
		}
	}
	for i := edges; i+1 < len(us); i += 2 {
		check(&us[i], &us[i+1])
	}
}
