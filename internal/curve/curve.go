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
// Points hold Montgomery limbs (ff.Mont) from construction on; math/big
// enters only with bytes, hash output or a caller's integers (Unmarshal,
// the hash, NewPoint) and leaves through Affine. The group law, the
// x-only subgroup ladder (xladder.go) and scalar multiplication — one
// Straus walk over width-4 NAFs in Jacobian coordinates (msm.go,
// montjac.go), which ScalarMult runs on one point and MSM on many — all
// run on limbs. Their oracle is internal/ref's affine math/big group law
// and double-and-add ladder: a different algorithm on a different number
// type.
package curve

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

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
// A Type-1 point holds its coordinates as Montgomery limbs of the
// curve's field (ff.Mont): X ‖ Y in one 2n-limb vector, written once
// by the constructor and never again, so points share it freely.
// Points of the other backend (internal/bls381) travel in the same
// vector (FromLimbs), with 6- or 12-limb coordinates no Type-1 preset
// has; this package's operations panic on a point of another width.
//
// A point carries the proof of its own subgroup membership: member is
// set by UnmarshalSubgroup alone, right after its test passed. Group
// operations build points with the bit clear, and the limbs beside a
// set bit never change, so the bit always describes them. InSubgroup
// answers from it without a ladder; Equal ignores it.
type Point struct {
	xy     ff.MontElem
	inf    bool
	member bool
}

// newAffine returns a finite point on fresh n-limb coordinates, with
// x and y the views its constructor fills.
func newAffine(n int) (p Point, x, y ff.MontElem) {
	xy := make(ff.MontElem, 2*n)
	return Point{xy: xy}, xy[:n], xy[n:]
}

// Limbs returns p's affine coordinates as Montgomery limbs, the two
// halves of its vector: p's own storage, read them, never write them.
func (p Point) Limbs() (x, y ff.MontElem) {
	n := len(p.xy) / 2
	return p.xy[:n], p.xy[n:]
}

// limbs returns p's coordinates, panicking on a point of another
// width: one of another curve or backend.
func (c *Curve) limbs(p Point) (x, y ff.MontElem) {
	if n := c.F.Mont().Limbs(); len(p.xy) != 2*n {
		panic(fmt.Sprintf("curve: a %d-limb point on a %d-limb curve", len(p.xy), 2*n))
	}
	return p.Limbs()
}

// FromLimbs wraps another backend's point: xy holds its coordinates as
// that backend lays them out, inf flags its identity, and the point
// owns xy from here on, never writing it. The member bit stays clear.
func FromLimbs(xy ff.MontElem, inf bool) Point { return Point{xy: xy, inf: inf} }

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
	m := c.F.Mont()
	p, xm, ym := newAffine(m.Limbs())
	m.ToMont(xm, c.F.Reduce(x))
	m.ToMont(ym, c.F.Reduce(y))
	if !c.IsOnCurve(p) {
		return Point{}, errors.New("curve: point is not on the curve")
	}
	return p, nil
}

// Affine returns p's affine coordinates as integers in [0, p), or nil
// and nil for the identity: the boundary to math/big, for tests and
// the oracles in internal/ref.
func (c *Curve) Affine(p Point) (x, y *big.Int) {
	if p.inf {
		return nil, nil
	}
	px, py := p.Limbs()
	return new(big.Int).SetBytes(c.F.AppendMontBytes(nil, px)), new(big.Int).SetBytes(c.F.AppendMontBytes(nil, py))
}

// IsInfinity reports whether p is the identity.
func (p Point) IsInfinity() bool { return p.inf }

// rhs sets dst = x³ + x.
func (c *Curve) rhs(dst, x ff.MontElem) {
	m := c.F.Mont()
	m.Sqr(dst, x)
	m.Mul(dst, dst, x)
	m.Add(dst, dst, x)
}

// IsOnCurve reports whether p satisfies the curve equation (infinity is
// on the curve, a point without coordinates is not).
func (c *Curve) IsOnCurve(p Point) bool {
	m := c.F.Mont()
	switch {
	case p.inf:
		return true
	case len(p.xy) != 2*m.Limbs():
		return false
	}
	a := m.GetArena()
	defer a.Release()
	x, y := p.Limbs()
	lhs, rhs := a.Elem(), a.Elem()
	m.Sqr(lhs, y)
	c.rhs(rhs, x)
	return m.Equal(lhs, rhs)
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
	x, _ := p.Limbs()
	return p.inf || c.qTorsion(x)
}

// Equal reports whether two points are equal.
func (c *Curve) Equal(p, q Point) bool { return p.Equal(q) }

// Equal reports whether p and q are the same point, whichever backend
// owns them: finite points compare limbs (Montgomery form is
// canonical), so points of different widths — different groups or
// backends — never compare equal, and every identity equals every
// other. Code that holds points without a backend in hand (the
// archive's conflict check) compares through this.
func (p Point) Equal(q Point) bool {
	// A coordinate-less point is the identity (zero value).
	pInf := p.inf || p.xy == nil
	qInf := q.inf || q.xy == nil
	if pInf || qInf {
		return pInf == qInf
	}
	return slices.Equal(p.xy, q.xy)
}

// Neg returns -p.
func (c *Curve) Neg(p Point) Point {
	if p.inf {
		return p
	}
	m := c.F.Mont()
	px, py := c.limbs(p)
	r, x, y := newAffine(m.Limbs())
	m.Set(x, px)
	m.Neg(y, py)
	return r
}

// Add returns p+q: the Jacobian addition of jacMontOps with both Z = 1,
// which doubles on p = q and yields ∞ on p = −q, and one inversion back
// to affine. A sum never carries the member bit, not even the operand
// returned as-is when the other is ∞.
func (c *Curve) Add(p, q Point) Point {
	if p.inf {
		q.member = false
		return q
	}
	if q.inf {
		p.member = false
		return p
	}
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	var o jacMontOps
	jacMontOpsIn(&o, m, a)
	one, acc := a.Elem(), newJacMontPointIn(a)
	m.SetOne(one)
	px, py := c.limbs(p)
	qx, qy := c.limbs(q)
	o.set(acc, jacMontPoint{X: px, Y: py, Z: one})
	o.add(acc, acc, jacMontPoint{X: qx, Y: qy, Z: one})
	return o.fromJacMont(acc)
}

// RandScalar returns a uniform scalar in Z_q^* — the range from which
// the paper draws private keys and encryption randomness. The scalar
// field context is cached on the curve (this is hit once per Encrypt
// and keygen).
func (c *Curve) RandScalar(rng io.Reader) (*big.Int, error) {
	return c.qField.RandNonZero(rng)
}

// String renders the point for debugging. A Type-1 point shows its
// Montgomery limbs: it carries no field context to leave the domain.
func (p Point) String() string {
	if p.inf {
		return "∞"
	}
	return fmt.Sprintf("%x", []uint64(p.xy))
}
