// Package ref holds the math/big oracles of the Type-1 stack: F_p (Fp)
// and the F_{p²} tower over it (Fp2, with ExpBig), the affine group law
// of y² = x³ + x (Add, Double, Neg, OnCurve) with the double-and-add
// ScalarMultAffine on it, and the affine Miller loop and PairAffine.
// Each is the textbook algorithm on big.Int with one inversion per
// step; none shares a formula or a number representation with the limb
// code in internal/ff, internal/curve and internal/pairing, which the
// differential tests hold to it.
//
// Only _test.go files and the experiment harness (internal/bench, E4's
// affine columns) import this package; `make spine` fails if a serving
// binary's dependencies ever include it.
package ref

import (
	"math/big"

	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
)

// Fp is the math/big F_p the oracles compute in: Add, Sub, Neg, Mul,
// Sqr and Inv return a fresh result mod p. Encoding, reduction and
// sampling come from the embedded ff.Field.
type Fp struct {
	*ff.Field
	p *big.Int
}

// NewFp returns the math/big arithmetic of f.
func NewFp(f *ff.Field) Fp { return Fp{Field: f, p: f.P()} }

func (f Fp) mod(x *big.Int) *big.Int    { return x.Mod(x, f.p) }
func (f Fp) Add(a, b *big.Int) *big.Int { return f.mod(new(big.Int).Add(a, b)) }
func (f Fp) Sub(a, b *big.Int) *big.Int { return f.mod(new(big.Int).Sub(a, b)) }
func (f Fp) Neg(a *big.Int) *big.Int    { return f.mod(new(big.Int).Neg(a)) }
func (f Fp) Mul(a, b *big.Int) *big.Int { return f.mod(new(big.Int).Mul(a, b)) }
func (f Fp) Sqr(a *big.Int) *big.Int    { return f.Mul(a, a) }

// Inv panics on zero.
func (f Fp) Inv(a *big.Int) *big.Int {
	r := new(big.Int).ModInverse(a, f.p)
	if r == nil {
		panic("ref: inverse of zero")
	}
	return r
}

// Affine is a point of E in math/big affine coordinates; the zero value
// (nil X) is the identity.
type Affine struct{ X, Y *big.Int }

// AffineOf returns the coordinates of the curve point p.
func AffineOf(c *curve.Curve, p curve.Point) Affine {
	x, y := c.Affine(p)
	return Affine{X: x, Y: y}
}

// OnCurve reports whether a is the identity or has reduced coordinates
// with y² = x³ + x.
func OnCurve(c *curve.Curve, a Affine) bool {
	f := NewFp(c.F)
	return a.X == nil || f.IsReduced(a.X) && f.IsReduced(a.Y) &&
		f.Sqr(a.Y).Cmp(f.Add(f.Mul(f.Sqr(a.X), a.X), a.X)) == 0
}

// Neg returns −a.
func Neg(c *curve.Curve, a Affine) Affine {
	if a.X != nil {
		a.Y = NewFp(c.F).Neg(a.Y)
	}
	return a
}

// Add returns a+b by the chord rule, deferring to Double when a = b and
// returning the identity when b = −a.
func Add(c *curve.Curve, a, b Affine) Affine {
	switch {
	case a.X == nil:
		return b
	case b.X == nil:
		return a
	case a.X.Cmp(b.X) == 0 && a.Y.Cmp(b.Y) == 0:
		return Double(c, a)
	case a.X.Cmp(b.X) == 0:
		return Affine{}
	}
	f := NewFp(c.F)
	return chord(f, a, b, f.Mul(f.Sub(b.Y, a.Y), f.Inv(f.Sub(b.X, a.X))))
}

// Double returns 2a by the tangent rule; a point with y = 0 has order 2.
func Double(c *curve.Curve, a Affine) Affine {
	if a.X == nil || a.Y.Sign() == 0 {
		return Affine{}
	}
	f := NewFp(c.F)
	return chord(f, a, a, tangent(f, a))
}

// tangent returns the slope (3x² + 1)/(2y) of the tangent at a, y ≠ 0.
func tangent(f Fp, a Affine) *big.Int {
	return f.Mul(f.Add(f.Mul(big.NewInt(3), f.Sqr(a.X)), big.NewInt(1)), f.Inv(f.Add(a.Y, a.Y)))
}

// chord completes an addition given the slope λ of the line through a
// and b: x3 = λ² − x_a − x_b, y3 = λ(x_a − x3) − y_a.
func chord(f Fp, a, b Affine, lambda *big.Int) Affine {
	x3 := f.Sub(f.Sub(f.Sqr(lambda), a.X), b.X)
	return Affine{X: x3, Y: f.Sub(f.Mul(lambda, f.Sub(a.X, x3)), a.Y)}
}

// ScalarMultAffine returns k·p by the textbook double-and-add ladder over
// the affine group law, one field inversion per step. k must be
// non-negative; p may be any curve point.
func ScalarMultAffine(c *curve.Curve, k *big.Int, p curve.Point) curve.Point {
	if k.Sign() < 0 {
		panic("ref: negative scalar")
	}
	a, acc := AffineOf(c, p), Affine{}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = Double(c, acc)
		if k.Bit(i) == 1 {
			acc = Add(c, acc, a)
		}
	}
	if acc.X == nil {
		return curve.Infinity()
	}
	r, err := c.NewPoint(acc.X, acc.Y)
	if err != nil {
		panic(err)
	}
	return r
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
	pa, qa := AffineOf(c, p), AffineOf(c, q)
	f := e2.One()
	v := pa
	for i := c.Q.BitLen() - 2; i >= 0; i-- {
		f = e2.Sqr(f)
		var g Fp2Elem
		v, g = lineDouble(e2, v, qa)
		f = e2.Mul(f, g)
		if c.Q.Bit(i) == 1 {
			v, g = lineAdd(e2, v, pa, qa)
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
func lineEval(f Fp, a, q Affine, lambda *big.Int) Fp2Elem {
	return Fp2Elem{A: f.Sub(f.Mul(lambda, f.Add(q.X, a.X)), a.Y), B: new(big.Int).Set(q.Y)}
}

// lineDouble returns (2v, g) for the tangent at v evaluated at ψ(q).
// Vertical tangents (y = 0) and the identity contribute 1.
func lineDouble(e2 *Fp2, v, q Affine) (Affine, Fp2Elem) {
	if v.X == nil || v.Y.Sign() == 0 {
		return Affine{}, e2.One()
	}
	lambda := tangent(e2.Fp, v)
	return chord(e2.Fp, v, v, lambda), lineEval(e2.Fp, v, q, lambda)
}

// lineAdd returns (v+p, g) for the chord through v and the finite p
// evaluated at ψ(q). The vertical chord v + (−v) contributes 1.
func lineAdd(e2 *Fp2, v, p, q Affine) (Affine, Fp2Elem) {
	switch {
	case v.X == nil:
		return p, e2.One()
	case v.X.Cmp(p.X) == 0 && v.Y.Cmp(p.Y) == 0:
		return lineDouble(e2, v, q)
	case v.X.Cmp(p.X) == 0:
		return Affine{}, e2.One()
	}
	f := e2.Fp
	lambda := f.Mul(f.Sub(p.Y, v.Y), f.Inv(f.Sub(p.X, v.X)))
	return chord(f, v, p, lambda), lineEval(f, v, q, lambda)
}
