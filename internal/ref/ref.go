// Package ref holds the math/big oracles of the Type-1 stack: the
// F_{p²} tower (Fp2, with ExpBig), the affine Miller loop and PairAffine,
// and the double-and-add ScalarMultAffine over curve.Curve's affine
// group law. Each is the textbook algorithm on big.Int with one
// inversion per step; none shares a formula or a number representation
// with the limb code in internal/ff, internal/curve and internal/pairing,
// which the differential tests hold to it.
//
// Only _test.go files and the experiment harness (internal/bench, E4's
// affine columns) import this package; `make spine` fails if a serving
// binary's dependencies ever include it.
package ref

import (
	"math/big"

	"timedrelease/internal/curve"
)

// ScalarMultAffine returns k·p by the textbook double-and-add ladder over
// the affine math/big group law (curve.Curve.Add and Double), one field
// inversion per step. k must be non-negative; p may be any curve point.
func ScalarMultAffine(c *curve.Curve, k *big.Int, p curve.Point) curve.Point {
	if k.Sign() < 0 {
		panic("ref: negative scalar")
	}
	acc := curve.Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = c.Double(acc)
		if k.Bit(i) == 1 {
			acc = c.Add(acc, p)
		}
	}
	return acc
}

// PairAffine is the oracle for every production pairing: the affine
// Miller loop followed by the plain exponentiation f^((p²−1)/q). Either
// argument at infinity gives 1.
func PairAffine(c *curve.Curve, p, q curve.Point) Fp2Elem {
	e2 := fp2(c)
	if p.IsInfinity() || q.IsInfinity() {
		return e2.One()
	}
	return e2.ExpBig(MillerAffine(c, p, q), FinalExponent(c))
}

// FinalExponent returns (p²−1)/q = (p−1)·h.
func FinalExponent(c *curve.Curve) *big.Int {
	pm1 := new(big.Int).Sub(c.F.P(), big.NewInt(1))
	return pm1.Mul(pm1, c.H)
}

// MillerAffine evaluates the Miller function f_{q,P} at the distorted
// point ψ(Q) = (−x_Q, i·y_Q) in affine coordinates, one inversion per
// step and no final exponentiation, walking the bits of q below the top
// one (the schedule is recomputed from c.Q on every call). Vertical
// lines are skipped: their values lie in F_p, which the final
// exponentiation kills. P and Q must be non-identity subgroup points.
func MillerAffine(c *curve.Curve, p, q curve.Point) Fp2Elem {
	e2 := fp2(c)
	f := e2.One()
	v := p
	for i := c.Q.BitLen() - 2; i >= 0; i-- {
		f = e2.Sqr(f)
		var g Fp2Elem
		v, g = lineDouble(c, e2, v, q)
		f = e2.Mul(f, g)
		if c.Q.Bit(i) == 1 {
			v, g = lineAdd(c, e2, v, p, q)
			f = e2.Mul(f, g)
		}
	}
	return f
}

// fp2 builds the extension over c's field; curve.New has checked
// p ≡ 3 (mod 4), so it cannot fail.
func fp2(c *curve.Curve) *Fp2 {
	e2, err := NewFp2(c.F)
	if err != nil {
		panic(err)
	}
	return e2
}

// lineEval evaluates the line of slope λ through the affine point a at
// ψ(Q):
//
//	g = i·y_Q − λ·(−x_Q) − (y_a − λ·x_a) = (λ·(x_Q + x_a) − y_a) + y_Q·i.
//
// Since Q has odd order q, y_Q ≠ 0, so g ≠ 0.
func lineEval(c *curve.Curve, a, q curve.Point, lambda *big.Int) Fp2Elem {
	fp := c.F
	return Fp2Elem{A: fp.Sub(fp.Mul(lambda, fp.Add(q.X, a.X)), a.Y), B: new(big.Int).Set(q.Y)}
}

// lineDouble returns (2v, g) for the tangent at v evaluated at ψ(q).
// Vertical tangents (y = 0) and the identity contribute 1.
func lineDouble(c *curve.Curve, e2 *Fp2, v, q curve.Point) (curve.Point, Fp2Elem) {
	if v.IsInfinity() {
		return v, e2.One()
	}
	if v.Y.Sign() == 0 {
		return curve.Infinity(), e2.One()
	}
	fp := c.F
	num := fp.Add(fp.Mul(big.NewInt(3), fp.Sqr(v.X)), big.NewInt(1))
	lambda := fp.Mul(num, fp.Inv(fp.Double(v.Y)))
	return c.Double(v), lineEval(c, v, q, lambda)
}

// lineAdd returns (v+p, g) for the chord through v and p evaluated at
// ψ(q). The vertical chord v + (−v) contributes 1.
func lineAdd(c *curve.Curve, e2 *Fp2, v, p, q curve.Point) (curve.Point, Fp2Elem) {
	switch {
	case v.IsInfinity():
		return p, e2.One()
	case p.IsInfinity():
		return v, e2.One()
	case v.X.Cmp(p.X) == 0:
		if v.Y.Cmp(p.Y) == 0 {
			return lineDouble(c, e2, v, q)
		}
		return curve.Infinity(), e2.One()
	}
	fp := c.F
	lambda := fp.Mul(fp.Sub(p.Y, v.Y), fp.Inv(fp.Sub(p.X, v.X)))
	return c.Add(v, p), lineEval(c, v, q, lambda)
}
