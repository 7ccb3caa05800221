// Package curve implements the supersingular elliptic curve
//
//	E: y² = x³ + x  over F_p,  p ≡ 3 (mod 4)
//
// which is the Gap Diffie-Hellman group G1 of the paper. The curve has
// exactly p+1 points over F_p and embedding degree 2; a prime q | p+1
// defines the order-q subgroup the schemes operate in, and the
// distortion map ψ(x, y) = (−x, i·y) into E(F_{p²}) makes the Tate
// pairing symmetric (Type-1).
//
// The package provides the group law, scalar multiplication, hashing to
// the subgroup (the paper's H1), and a canonical compressed point
// encoding. Scalar multiplication is one walk — Straus's interleaving
// over width-4 NAFs in Jacobian coordinates on the field's Montgomery
// limb layer (msm.go, montjac.go), which ScalarMult runs on one point
// and MSM on many. Its oracle is internal/ref's textbook double-and-add
// ladder over the affine math/big group law (Add, Double): a different
// algorithm on a different number type.
package curve

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/ff"
)

var (
	big1 = big.NewInt(1)
	big3 = big.NewInt(3)
)

// Curve binds the base field to the subgroup structure q·h = p+1.
type Curve struct {
	F *ff.Field // base field F_p
	Q *big.Int  // prime order of the working subgroup
	H *big.Int  // cofactor, q·h = p+1

	qField  *ff.Field // scalar field Z_q, built once at construction
	sqrtExp *big.Int  // (p+1)/4: a^sqrtExp is a square root of every square a
}

// Point is an affine point on E, or the point at infinity.
// The zero value is the point at infinity.
//
// Points of non-Type-1 backends (internal/backend) reuse this struct
// as their transport type: they carry an opaque handle in Ext and
// leave X and Y nil. Such points flow only through their own backend's
// operations; the Type-1 arithmetic in this package never sees them.
//
// A point carries the proof of its own subgroup membership: member is
// set by UnmarshalSubgroup alone, right after its test passed, and kept
// by Clone. Group operations and struct literals build points with the
// bit clear, and nothing writes to X or Y after construction, so a set
// bit always describes the coordinates beside it. InSubgroup answers
// from it without a ladder; Equal ignores it.
type Point struct {
	X, Y   *big.Int
	inf    bool
	member bool

	// Ext is the opaque external-backend point, nil for Type-1 points.
	Ext ExtPoint
}

// ExtPoint is the handle an external (asymmetric) pairing backend
// stores inside a Point. Implementations are immutable.
type ExtPoint interface {
	// ExtBackend names the owning backend, for diagnostics.
	ExtBackend() string
	// ExtGroup returns the source group (1 or 2) the point belongs to.
	ExtGroup() int
	// ExtEqual reports whether o is the same point of the same backend
	// and group.
	ExtEqual(o ExtPoint) bool
}

// NewExtPoint wraps an external-backend point handle. isInf mirrors
// the backend's identity flag so Point.IsInfinity answers uniformly
// across backends.
func NewExtPoint(e ExtPoint, isInf bool) Point {
	return Point{Ext: e, inf: isInf}
}

// New returns a curve context after checking the structural relation
// q·h = p+1 and that p ≡ 3 (mod 4) (supersingularity of y² = x³+x).
func New(f *ff.Field, q, h *big.Int) (*Curve, error) {
	if f == nil || q == nil || h == nil {
		return nil, errors.New("curve: nil parameter")
	}
	p := f.P()
	if new(big.Int).Mod(p, big.NewInt(4)).Cmp(big3) != 0 {
		return nil, errors.New("curve: p ≡ 3 (mod 4) required for supersingular y²=x³+x")
	}
	pp1 := new(big.Int).Add(p, big1)
	if new(big.Int).Mul(q, h).Cmp(pp1) != 0 {
		return nil, errors.New("curve: group order mismatch, need q·h = p+1")
	}
	if q.Bit(0) == 0 {
		return nil, errors.New("curve: subgroup order q must be odd")
	}
	qf, err := ff.NewField(q)
	if err != nil {
		return nil, fmt.Errorf("curve: subgroup order: %w", err)
	}
	return &Curve{F: f, Q: new(big.Int).Set(q), H: new(big.Int).Set(h), qField: qf, sqrtExp: pp1.Rsh(pp1, 2)}, nil
}

// Infinity returns the point at infinity (the group identity).
func Infinity() Point { return Point{inf: true} }

// NewPoint returns the affine point (x, y) after an on-curve check.
func (c *Curve) NewPoint(x, y *big.Int) (Point, error) {
	p := Point{X: c.F.Reduce(x), Y: c.F.Reduce(y)}
	if !c.IsOnCurve(p) {
		return Point{}, errors.New("curve: point is not on the curve")
	}
	return p, nil
}

// IsInfinity reports whether p is the identity.
func (p Point) IsInfinity() bool { return p.inf }

// rhs returns x³ + x mod p.
func (c *Curve) rhs(x *big.Int) *big.Int {
	x3 := c.F.Mul(c.F.Sqr(x), x)
	return c.F.Add(x3, x)
}

// IsOnCurve reports whether p satisfies the curve equation (infinity is
// on the curve).
func (c *Curve) IsOnCurve(p Point) bool {
	if p.inf {
		return true
	}
	if !c.F.IsReduced(p.X) || !c.F.IsReduced(p.Y) {
		return false
	}
	return c.F.Equal(c.F.Sqr(p.Y), c.rhs(p.X))
}

// InSubgroup reports whether p lies in the order-q subgroup. A point
// decoded by UnmarshalSubgroup is a member on its proof; any other runs
// the curve equation and the x-only ladder [q]P = ∞ (xladder.go).
func (c *Curve) InSubgroup(p Point) bool {
	switch {
	case p.member:
		return true
	case !c.IsOnCurve(p):
		return false
	}
	return p.inf || c.qTorsion(p.X)
}

// Equal reports whether two points are equal.
func (c *Curve) Equal(p, q Point) bool { return p.Equal(q) }

// Equal reports whether p and q are the same point, whichever backend
// owns them: Type-1 points compare coordinates, external-backend points
// compare through their handle, and a point of one representation never
// equals a finite point of the other. Code that holds points without a
// backend in hand (the archive's conflict check) compares through this.
func (p Point) Equal(q Point) bool {
	// A coordinate-less, untagged point is the identity (zero value).
	pInf := p.inf || (p.X == nil && p.Ext == nil)
	qInf := q.inf || (q.X == nil && q.Ext == nil)
	switch {
	case pInf || qInf:
		return pInf == qInf
	case p.Ext != nil || q.Ext != nil:
		return p.Ext != nil && q.Ext != nil && p.Ext.ExtEqual(q.Ext)
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Neg returns -p.
func (c *Curve) Neg(p Point) Point {
	if p.inf {
		return p
	}
	return Point{X: new(big.Int).Set(p.X), Y: c.F.Neg(p.Y)}
}

// Add returns p+q using affine formulas. A sum never carries the member
// bit, not even the operand returned as-is when the other is ∞.
func (c *Curve) Add(p, q Point) Point {
	if p.inf {
		q.member = false
		return q
	}
	if q.inf {
		p.member = false
		return p
	}
	if p.X.Cmp(q.X) == 0 {
		if p.Y.Cmp(q.Y) != 0 || p.Y.Sign() == 0 {
			// q = -p (or doubling a 2-torsion point): identity.
			return Infinity()
		}
		return c.Double(p)
	}
	lambda := c.F.Mul(c.F.Sub(q.Y, p.Y), c.F.Inv(c.F.Sub(q.X, p.X)))
	return c.chord(p, q, lambda)
}

// Double returns 2p using affine formulas. The tangent slope for
// y² = x³ + x is (3x² + 1)/(2y).
func (c *Curve) Double(p Point) Point {
	if p.inf || p.Y.Sign() == 0 {
		return Infinity()
	}
	num := c.F.Add(c.F.Mul(big3, c.F.Sqr(p.X)), big1)
	lambda := c.F.Mul(num, c.F.Inv(c.F.Double(p.Y)))
	return c.chord(p, p, lambda)
}

// chord completes an affine add/double given the line slope λ through
// p and q: x3 = λ² − x_p − x_q, y3 = λ(x_p − x3) − y_p.
func (c *Curve) chord(p, q Point, lambda *big.Int) Point {
	x3 := c.F.Sub(c.F.Sub(c.F.Sqr(lambda), p.X), q.X)
	y3 := c.F.Sub(c.F.Mul(lambda, c.F.Sub(p.X, x3)), p.Y)
	return Point{X: x3, Y: y3}
}

// Sub returns p−q.
func (c *Curve) Sub(p, q Point) Point { return c.Add(p, c.Neg(q)) }

// RandScalar returns a uniform scalar in Z_q^* — the range from which
// the paper draws private keys and encryption randomness. The scalar
// field context is cached on the curve (this is hit once per Encrypt
// and keygen).
func (c *Curve) RandScalar(rng io.Reader) (*big.Int, error) {
	return c.qField.RandNonZero(rng)
}

// Clone returns an independent copy of p, member bit included.
// External-backend points are immutable, so their handle is shared.
func (p Point) Clone() Point {
	if p.Ext != nil {
		return p
	}
	if p.inf {
		return Infinity()
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y), member: p.member}
}

// String renders the point for debugging.
func (p Point) String() string {
	if p.Ext != nil {
		return fmt.Sprintf("%s/G%d point", p.Ext.ExtBackend(), p.Ext.ExtGroup())
	}
	if p.inf {
		return "∞"
	}
	return fmt.Sprintf("(%v, %v)", p.X, p.Y)
}
