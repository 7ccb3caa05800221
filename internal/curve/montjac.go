package curve

import "timedrelease/internal/ff"

// jacMontPoint is a Jacobian point on Montgomery limb vectors:
// (X : Y : Z) ↔ affine (X/Z², Y/Z³), Z = 0 encoding infinity, with
// every coordinate in the Montgomery domain of the base field. Jacobian
// arithmetic avoids the per-operation field inversion of the affine
// formulas, which dominates scalar-multiplication cost (measured in
// experiment E4); the differential tests pin it to internal/ref's
// affine oracle.
type jacMontPoint struct {
	X, Y, Z ff.MontElem
}

// newJacMontPointIn carves the point's coordinates out of a pooled
// arena; valid until the arena is released.
func newJacMontPointIn(a *ff.Arena) jacMontPoint {
	return jacMontPoint{X: a.Elem(), Y: a.Elem(), Z: a.Elem()}
}

// jacMontOps bundles the Montgomery context with scratch limbs so the
// walk allocates a fixed set of vectors once per scalar multiplication
// instead of per point operation. negY holds a negated table entry's Y
// for the walk's negative digits; the group law never touches it.
type jacMontOps struct {
	m                          *ff.Mont
	t1, t2, t3, t4, t5, t6, t7 ff.MontElem
	negY                       ff.MontElem
}

// jacMontOpsIn fills o with scratch carved from a pooled arena so a
// whole scalar multiplication allocates nothing; o itself lives on the
// caller's stack and must not outlive the arena.
func jacMontOpsIn(o *jacMontOps, m *ff.Mont, a *ff.Arena) {
	o.m = m
	o.t1, o.t2, o.t3, o.t4 = a.Elem(), a.Elem(), a.Elem(), a.Elem()
	o.t5, o.t6, o.t7, o.negY = a.Elem(), a.Elem(), a.Elem(), a.Elem()
}

func (o *jacMontOps) setInfinity(dst jacMontPoint) {
	o.m.SetOne(dst.X)
	o.m.SetOne(dst.Y)
	o.m.SetZero(dst.Z)
}

func (o *jacMontOps) set(dst, p jacMontPoint) {
	o.m.Set(dst.X, p.X)
	o.m.Set(dst.Y, p.Y)
	o.m.Set(dst.Z, p.Z)
}

// double computes dst = 2p on y² = x³ + a·x with a = 1:
//
//	M  = 3X² + a·Z⁴,  S = 4XY²
//	X' = M² − 2S,  Y' = M(S − X') − 8Y⁴,  Z' = 2YZ
//
// dst may alias p.
func (o *jacMontOps) double(dst, p jacMontPoint) {
	m := o.m
	if m.IsZero(p.Z) || m.IsZero(p.Y) {
		o.setInfinity(dst)
		return
	}
	y2 := o.t1
	m.Sqr(y2, p.Y) // Y²
	mm := o.t2
	m.Sqr(mm, p.Z)
	m.Sqr(mm, mm) // Z⁴ (a = 1 ⇒ a·Z⁴ = Z⁴)
	x2 := o.t3
	m.Sqr(x2, p.X)
	m.Add(mm, mm, x2)
	m.Add(mm, mm, x2)
	m.Add(mm, mm, x2) // M = 3X² + Z⁴
	s := o.t4
	m.Mul(s, p.X, y2)
	m.Double(s, s)
	m.Double(s, s) // S = 4XY²
	zNew := o.t5
	m.Mul(zNew, p.Y, p.Z)
	m.Double(zNew, zNew) // Z' = 2YZ

	// All reads of p are done; dst may alias it from here.
	m.Sqr(dst.X, mm)
	m.Sub(dst.X, dst.X, s)
	m.Sub(dst.X, dst.X, s) // X' = M² − 2S
	m.Sqr(y2, y2)
	m.Double(y2, y2)
	m.Double(y2, y2)
	m.Double(y2, y2)        // 8Y⁴
	m.Sub(s, s, dst.X)      // S − X'
	m.Mul(dst.Y, mm, s)     //
	m.Sub(dst.Y, dst.Y, y2) // Y' = M(S − X') − 8Y⁴
	m.Set(dst.Z, zNew)
}

// add computes dst = p + q with the general Jacobian formulas:
//
//	U1 = X1·Z2², U2 = X2·Z1², S1 = Y1·Z2³, S2 = Y2·Z1³
//	H = U2 − U1, R = S2 − S1
//	X3 = R² − H³ − 2·U1·H², Y3 = R(U1·H² − X3) − S1·H³, Z3 = Z1·Z2·H
//
// dst may alias p; it must not alias q.
func (o *jacMontOps) add(dst, p, q jacMontPoint) {
	m := o.m
	if m.IsZero(p.Z) {
		o.set(dst, q)
		return
	}
	if m.IsZero(q.Z) {
		o.set(dst, p)
		return
	}
	z1s := o.t1
	m.Sqr(z1s, p.Z) // Z1²
	z2s := o.t2
	m.Sqr(z2s, q.Z) // Z2²
	u1 := o.t3
	m.Mul(u1, p.X, z2s) // U1
	u2 := o.t4
	m.Mul(u2, q.X, z1s) // U2
	s1 := o.t5
	m.Mul(s1, z2s, q.Z)
	m.Mul(s1, p.Y, s1) // S1
	s2 := o.t6
	m.Mul(s2, z1s, p.Z)
	m.Mul(s2, q.Y, s2) // S2
	h := u2
	m.Sub(h, u2, u1) // H = U2 − U1
	r := s2
	m.Sub(r, s2, s1) // R = S2 − S1
	if m.IsZero(h) {
		if m.IsZero(r) {
			o.double(dst, p)
			return
		}
		o.setInfinity(dst)
		return
	}
	zNew := o.t7
	m.Mul(zNew, p.Z, q.Z)
	m.Mul(zNew, zNew, h) // Z3 = Z1·Z2·H
	h2 := z1s
	m.Sqr(h2, h) // H² (Z1² dead)
	m.Mul(u1, u1, h2)
	m.Mul(h2, h2, h) // H³ (H² dead after U1·H²)
	m.Mul(s1, s1, h2)

	// All reads of p are done; dst may alias it from here.
	m.Sqr(dst.X, r)
	m.Sub(dst.X, dst.X, h2)
	m.Sub(dst.X, dst.X, u1)
	m.Sub(dst.X, dst.X, u1) // X3 = R² − H³ − 2·U1·H²
	m.Sub(u1, u1, dst.X)    // U1·H² − X3
	m.Mul(dst.Y, r, u1)
	m.Sub(dst.Y, dst.Y, s1) // Y3 = R(U1·H² − X3) − S1·H³
	m.Set(dst.Z, zNew)
}

// fromJacMont normalises to affine, (X/Z², Y/Z³), with one Montgomery
// inversion, into a fresh point.
func (o *jacMontOps) fromJacMont(j jacMontPoint) Point {
	m := o.m
	if m.IsZero(j.Z) {
		return Infinity()
	}
	p, x, y := newAffine(m.Limbs())
	zi, zi2 := o.t1, o.t2
	m.Inv(zi, j.Z)
	m.Sqr(zi2, zi)
	m.Mul(x, j.X, zi2)
	m.Mul(zi2, zi2, zi) // Z⁻³
	m.Mul(y, j.Y, zi2)
	return p
}
