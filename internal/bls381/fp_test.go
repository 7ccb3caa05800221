package bls381

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// --- big.Int reference tower ----------------------------------------
//
// An independent, obviously-correct model of Fp2/Fp6/Fp12 arithmetic
// used to pin the limb-based implementation. Representation: rfe2 is
// [2]*big.Int (c0 + c1·i), rfe6 is [3]rfe2, rfe12 is [2]rfe6, with the
// same tower (i²=−1, v³=ξ=1+i, w²=v).

type rfe2 [2]*big.Int

func rP() *big.Int { initCtx(); return ctx.p }

func r2new() rfe2 { return rfe2{new(big.Int), new(big.Int)} }

func r2add(a, b rfe2) rfe2 {
	p := rP()
	return rfe2{
		new(big.Int).Mod(new(big.Int).Add(a[0], b[0]), p),
		new(big.Int).Mod(new(big.Int).Add(a[1], b[1]), p),
	}
}

func r2sub(a, b rfe2) rfe2 {
	p := rP()
	return rfe2{
		new(big.Int).Mod(new(big.Int).Sub(a[0], b[0]), p),
		new(big.Int).Mod(new(big.Int).Sub(a[1], b[1]), p),
	}
}

func r2mul(a, b rfe2) rfe2 {
	p := rP()
	t0 := new(big.Int).Mul(a[0], b[0])
	t1 := new(big.Int).Mul(a[1], b[1])
	t2 := new(big.Int).Mul(a[0], b[1])
	t3 := new(big.Int).Mul(a[1], b[0])
	return rfe2{
		new(big.Int).Mod(new(big.Int).Sub(t0, t1), p),
		new(big.Int).Mod(new(big.Int).Add(t2, t3), p),
	}
}

func r2neg(a rfe2) rfe2 {
	p := rP()
	return rfe2{
		new(big.Int).Mod(new(big.Int).Neg(a[0]), p),
		new(big.Int).Mod(new(big.Int).Neg(a[1]), p),
	}
}

func r2xi(a rfe2) rfe2 { // multiply by ξ = 1+i
	return r2mul(a, rfe2{big.NewInt(1), big.NewInt(1)})
}

func r2inv(a rfe2) rfe2 {
	p := rP()
	n := new(big.Int).Add(new(big.Int).Mul(a[0], a[0]), new(big.Int).Mul(a[1], a[1]))
	n.Mod(n, p)
	n.ModInverse(n, p)
	return rfe2{
		new(big.Int).Mod(new(big.Int).Mul(a[0], n), p),
		new(big.Int).Mod(new(big.Int).Neg(new(big.Int).Mul(a[1], n)), p),
	}
}

type rfe6 [3]rfe2

func r6add(a, b rfe6) rfe6 { return rfe6{r2add(a[0], b[0]), r2add(a[1], b[1]), r2add(a[2], b[2])} }

func r6mul(a, b rfe6) rfe6 {
	// Schoolbook with v³ = ξ reduction.
	var acc [5]rfe2
	for i := range acc {
		acc[i] = r2new()
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			acc[i+j] = r2add(acc[i+j], r2mul(a[i], b[j]))
		}
	}
	return rfe6{
		r2add(acc[0], r2xi(acc[3])),
		r2add(acc[1], r2xi(acc[4])),
		acc[2],
	}
}

func r6mulV(a rfe6) rfe6 { return rfe6{r2xi(a[2]), a[0], a[1]} }

type rfe12 [2]rfe6

func r12mul(a, b rfe12) rfe12 {
	t0 := r6mul(a[0], b[0])
	t1 := r6mul(a[1], b[1])
	t2 := r6mul(r6add(a[0], a[1]), r6add(b[0], b[1]))
	c1 := rfe6{r2sub(t2[0], r2add(t0[0], t1[0])), r2sub(t2[1], r2add(t0[1], t1[1])), r2sub(t2[2], r2add(t0[2], t1[2]))}
	return rfe12{r6add(t0, r6mulV(t1)), c1}
}

// --- conversions ----------------------------------------------------

func (z *fe2) toRef() rfe2 { return rfe2{z.c0.toBig(), z.c1.toBig()} }
func (z *fe6) toRef() rfe6 { return rfe6{z.b0.toRef(), z.b1.toRef(), z.b2.toRef()} }
func (z *fe12) toRef() rfe12 {
	return rfe12{z.c0.toRef(), z.c1.toRef()}
}

func r2equal(a, b rfe2) bool { return a[0].Cmp(b[0]) == 0 && a[1].Cmp(b[1]) == 0 }
func r6equal(a, b rfe6) bool {
	return r2equal(a[0], b[0]) && r2equal(a[1], b[1]) && r2equal(a[2], b[2])
}
func r12equal(a, b rfe12) bool { return r6equal(a[0], b[0]) && r6equal(a[1], b[1]) }

func randFe(t testing.TB) fe {
	t.Helper()
	initCtx()
	v, err := rand.Int(rand.Reader, ctx.p)
	if err != nil {
		t.Fatal(err)
	}
	var z fe
	z.fromBig(v)
	return z
}

func randFe2(t testing.TB) fe2 { return fe2{randFe(t), randFe(t)} }
func randFe6(t testing.TB) fe6 { return fe6{randFe2(t), randFe2(t), randFe2(t)} }
func randFe12(t testing.TB) fe12 {
	return fe12{randFe6(t), randFe6(t)}
}

// testExp is a generic square-and-multiply on fe12 using only mul/sqr
// (themselves differentially pinned), for cross-checking frobenius and
// the cyclotomic ladders.
func testExp(x *fe12, e *big.Int) fe12 {
	var acc fe12
	acc.setOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.sqr(&acc)
		if e.Bit(i) == 1 {
			acc.mul(&acc, x)
		}
	}
	return acc
}

// cyclotomic lifts a random element into the cyclotomic subgroup via
// the easy part of the final exponentiation.
func cyclotomic(t testing.TB) fe12 {
	x := randFe12(t)
	var f, u fe12
	u.inv(&x)
	f.conj(&x)
	f.mul(&f, &u)
	u.frobN(&f, 2)
	f.mul(&f, &u)
	return f
}

// --- tests ----------------------------------------------------------

func TestCurveConstants(t *testing.T) {
	initCtx()
	x := new(big.Int).Neg(xBig())
	// r = x⁴ − x² + 1
	x2 := new(big.Int).Mul(x, x)
	x4 := new(big.Int).Mul(x2, x2)
	r := new(big.Int).Sub(x4, x2)
	r.Add(r, big.NewInt(1))
	if r.Cmp(ctx.r) != 0 {
		t.Fatal("r != x^4 - x^2 + 1")
	}
	// p = (x−1)²·r/3 + x
	xm1 := new(big.Int).Sub(x, big.NewInt(1))
	p := new(big.Int).Mul(xm1, xm1)
	p.Mul(p, r)
	p.Div(p, big.NewInt(3))
	p.Add(p, x)
	if p.Cmp(ctx.p) != 0 {
		t.Fatal("p != (x-1)^2 (x^4-x^2+1)/3 + x")
	}
	if !ctx.p.ProbablyPrime(32) || !ctx.r.ProbablyPrime(32) {
		t.Fatal("p or r not prime")
	}
	// h1 = (p + 1 − t)/r with t = x+1
	tr := new(big.Int).Add(x, big.NewInt(1))
	n1 := new(big.Int).Add(p, big.NewInt(1))
	n1.Sub(n1, tr)
	h1 := new(big.Int).Div(n1, r)
	if new(big.Int).Mul(h1, r).Cmp(n1) != 0 || h1.Cmp(ctx.h1) != 0 {
		t.Fatal("h1 mismatch")
	}
}

func TestFp2Differential(t *testing.T) {
	for i := 0; i < 200; i++ {
		a, b := randFe2(t), randFe2(t)
		var z fe2
		z.mul(&a, &b)
		if !r2equal(z.toRef(), r2mul(a.toRef(), b.toRef())) {
			t.Fatal("mul mismatch")
		}
		z.sqr(&a)
		if !r2equal(z.toRef(), r2mul(a.toRef(), a.toRef())) {
			t.Fatal("sqr mismatch")
		}
		z.add(&a, &b)
		if !r2equal(z.toRef(), r2add(a.toRef(), b.toRef())) {
			t.Fatal("add mismatch")
		}
		z.sub(&a, &b)
		if !r2equal(z.toRef(), r2sub(a.toRef(), b.toRef())) {
			t.Fatal("sub mismatch")
		}
		z.mulByNonRes(&a)
		if !r2equal(z.toRef(), r2xi(a.toRef())) {
			t.Fatal("mulByNonRes mismatch")
		}
		if !a.isZero() {
			z.inv(&a)
			if !r2equal(z.toRef(), r2inv(a.toRef())) {
				t.Fatal("inv mismatch")
			}
			var w fe2
			w.mul(&z, &a)
			if !w.isOne() {
				t.Fatal("inv not inverse")
			}
		}
	}
}

// TestFp2Sqrt pins the two-exponentiation square root to the
// four-exponentiation form it replaced, bit for bit: on random squares,
// on non-squares (both refuse), and on the edges c1 = 0 — c0 a square
// (real root), c0 a non-square (d = (c0 + n)/2 = 0, imaginary root) and
// zero.
func TestFp2Sqrt(t *testing.T) {
	initCtx()
	rng := mrand.New(mrand.NewSource(2))
	seeded := func() (x fe) { x.fromBig(new(big.Int).Rand(rng, ctx.p)); return x }
	var inputs []fe2
	for i := 0; i < 200; i++ {
		a := fe2{seeded(), seeded()}
		var sq fe2
		sq.sqr(&a)
		inputs = append(inputs, sq, a)
	}
	var minusOne, three fe
	minusOne.neg(&ctx.one)
	three.fromBig(big.NewInt(3))
	c0 := seeded()
	c0.sqr(&c0)
	var nc0 fe
	nc0.neg(&c0)
	inputs = append(inputs, fe2{}, fe2{c0: c0}, fe2{c0: nc0}, fe2{c0: minusOne}, fe2{c0: three}, fe2{c1: c0})
	squares, others := 0, 0
	for _, x := range inputs {
		var got, want fe2
		ok := got.sqrt(&x)
		if wantOK := want.sqrtFourExp(&x); ok != wantOK || ok && !got.equal(&want) {
			t.Fatalf("sqrt(%v) = %v (%v), four-exponentiation form %v (%v)", x.toRef(), got.toRef(), ok, want.toRef(), wantOK)
		}
		if ok != x.isResidue() {
			t.Fatalf("sqrt(%v) reports %v, Euler's criterion on the norm says %v", x.toRef(), ok, !ok)
		}
		if !ok {
			others++
			continue
		}
		squares++
		var chk fe2
		if chk.sqr(&got); !chk.equal(&x) {
			t.Fatalf("sqrt(%v)² != input", x.toRef())
		}
		if xx := x; !xx.sqrt(&xx) || !xx.equal(&got) {
			t.Fatalf("sqrt(%v): aliased output differs", x.toRef())
		}
	}
	if squares < 200 || others < 50 {
		t.Fatalf("%d squares and %d non-squares: the sample lost a side", squares, others)
	}
	// ξ·a² is a non-square: ξ generates the sextic twist.
	var bad, rt fe2
	a := randFe2(t)
	bad.sqr(&a)
	bad.mulByNonRes(&bad)
	if !bad.isZero() && rt.sqrt(&bad) {
		t.Fatal("sqrt succeeded on non-residue")
	}
}

func TestFp6Differential(t *testing.T) {
	for i := 0; i < 100; i++ {
		a, b := randFe6(t), randFe6(t)
		var z fe6
		z.mul(&a, &b)
		if !r6equal(z.toRef(), r6mul(a.toRef(), b.toRef())) {
			t.Fatal("fp6 mul mismatch")
		}
		z.sqr(&a)
		if !r6equal(z.toRef(), r6mul(a.toRef(), a.toRef())) {
			t.Fatal("fp6 sqr mismatch")
		}
		z.mulByV(&a)
		if !r6equal(z.toRef(), r6mulV(a.toRef())) {
			t.Fatal("fp6 mulByV mismatch")
		}
		// Sparse products vs dense reference.
		s0, s1 := randFe2(t), randFe2(t)
		z.mulBy01(&a, &s0, &s1)
		dense := rfe6{s0.toRef(), s1.toRef(), r2new()}
		if !r6equal(z.toRef(), r6mul(a.toRef(), dense)) {
			t.Fatal("fp6 mulBy01 mismatch")
		}
		z.mulBy1(&a, &s1)
		dense = rfe6{r2new(), s1.toRef(), r2new()}
		if !r6equal(z.toRef(), r6mul(a.toRef(), dense)) {
			t.Fatal("fp6 mulBy1 mismatch")
		}
		if !a.isZero() {
			z.inv(&a)
			var w fe6
			w.mul(&z, &a)
			var one fe6
			one.setOne()
			if !w.equal(&one) {
				t.Fatal("fp6 inv not inverse")
			}
		}
	}
}

func TestFp12Differential(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b := randFe12(t), randFe12(t)
		var z fe12
		z.mul(&a, &b)
		if !r12equal(z.toRef(), r12mul(a.toRef(), b.toRef())) {
			t.Fatal("fp12 mul mismatch")
		}
		z.sqr(&a)
		if !r12equal(z.toRef(), r12mul(a.toRef(), a.toRef())) {
			t.Fatal("fp12 sqr mismatch")
		}
		z.inv(&a)
		var w fe12
		w.mul(&z, &a)
		if !w.isOne() {
			t.Fatal("fp12 inv not inverse")
		}
		// Sparse line multiplication vs dense reference.
		la, lb, lc := randFe2(t), randFe2(t), randFe2(t)
		var dense fe12
		dense.c0.b0.set(&la)
		dense.c0.b1.set(&lb)
		dense.c1.b1.set(&lc)
		var viaSparse, viaDense fe12
		viaSparse.mulBySparse(&a, &la, &lb, &lc)
		viaDense.mul(&a, &dense)
		if !viaSparse.equal(&viaDense) {
			t.Fatal("mulBySparse mismatch")
		}
	}
}

func TestFp12Frobenius(t *testing.T) {
	initCtx()
	for i := 0; i < 5; i++ {
		a := randFe12(t)
		var z fe12
		z.frob(&a)
		want := testExp(&a, ctx.p)
		if !z.equal(&want) {
			t.Fatal("frobenius != x^p")
		}
	}
}

func TestCyclotomicSqrMatchesGeneric(t *testing.T) {
	for i := 0; i < 30; i++ {
		u := cyclotomic(t)
		var a, b fe12
		a.cyclotomicSqr(&u)
		b.sqr(&u)
		if !a.equal(&b) {
			t.Fatal("cyclotomic sqr disagrees with generic sqr")
		}
	}
}

func TestUnitaryConjIsInverse(t *testing.T) {
	u := cyclotomic(t)
	var c, w fe12
	c.conj(&u)
	w.mul(&c, &u)
	if !w.isOne() {
		t.Fatal("conj is not the inverse on the cyclotomic subgroup")
	}
}

func TestExpByX(t *testing.T) {
	initCtx()
	u := cyclotomic(t)
	var got fe12
	got.expByX(&u)
	want := testExp(&u, xBig())
	want.conj(&want) // x is negative
	if !got.equal(&want) {
		t.Fatal("expByX mismatch")
	}
}

func TestExpUnitary(t *testing.T) {
	initCtx()
	rng := mrand.New(mrand.NewSource(7))
	u := cyclotomic(t)
	for i := 0; i < 10; i++ {
		k := new(big.Int).Rand(rng, ctx.r)
		var got fe12
		got.expUnitary(&u, k)
		want := testExp(&u, k)
		if !got.equal(&want) {
			t.Fatalf("expUnitary mismatch at iteration %d", i)
		}
	}
	var id fe12
	id.expUnitary(&u, big.NewInt(0))
	if !id.isOne() {
		t.Fatal("x^0 != 1")
	}
}

func TestFinalExpInCyclotomicSubgroup(t *testing.T) {
	initCtx()
	x := randFe12(t)
	var f fe12
	f.finalExp(&x)
	// GT elements have order dividing r: f^r == 1.
	got := testExp(&f, ctx.r)
	if !got.isOne() {
		t.Fatal("finalExp output does not have order dividing r")
	}
	if f.isOne() {
		t.Fatal("finalExp degenerate on random input")
	}
}
