package curve

import "timedrelease/internal/ff"

// qTorsion reports whether [q]P = ∞ for a point P of E(F_p) with
// x-coordinate limbs x1: the subgroup test, on the x-only Montgomery ladder.
//
// y² = x³ + x is the Montgomery curve B·y² = x³ + A·x² + x with A = 0,
// B = 1. Curve.New insists on p ≡ 3 (mod 4), so −1 is not a square and
// neither is A² − 4 = −4; under that condition the ladder computes
// x([n]P) exactly for every n and every starting x ≠ 0, ∞ included as
// (X : 0) (Bernstein–Lange, "Montgomery curves and the Montgomery
// ladder", 2017, Thm 4.5). x = 0 is the point (0, 0), of order 2, never
// in the odd-order subgroup; it is the one input whose differential
// additions degenerate, so it is rejected up front.
//
// The ladder keeps R0 = [k]P and R1 = [k+1]P as (X : Z) pairs, starting
// from (∞, P), and walks q from the top bit: each step adds the pair
// (their difference is always P, so the addition needs only x) and
// doubles one of them, 4 squarings and 5 products on Montgomery limbs.
// The doubling is scaled by 2 so it needs no a24 = (A+2)/4 constant:
//
//	A = X+Z, B = X−Z of the point doubled, C = X+Z, D = X−Z of the other
//	sum:    X = (DA + CB)²,  Z = x·(DA − CB)²
//	double: AA = A², BB = B², E = AA − BB,  X₂ = 2·AA·BB,  Z₂ = E·(2·BB + E)
//
// It ends on R0 = [q]P, which is ∞ exactly when its Z is 0. Every
// temporary comes from a pooled arena: the test allocates nothing.
func (c *Curve) qTorsion(x1 ff.MontElem) bool {
	m := c.F.Mont()
	if m.IsZero(x1) {
		return false
	}
	a := m.GetArena()
	defer a.Release()
	x0, z0, xP, zP := a.Elem(), a.Elem(), a.Elem(), a.Elem()
	m.SetOne(x0) // R0 = ∞ = (1 : 0)
	m.Set(xP, x1)
	m.SetOne(zP) // R1 = P = (x : 1)
	t0, t1, t2, t3 := a.Elem(), a.Elem(), a.Elem(), a.Elem()
	for i := c.Q.BitLen() - 1; i >= 0; i-- {
		// Bit 0: R1 ← R0 + R1, R0 ← [2]R0. Bit 1: the roles swap.
		dx, dz, ax, az := x0, z0, xP, zP
		if c.Q.Bit(i) == 1 {
			dx, dz, ax, az = xP, zP, x0, z0
		}
		m.Add(t0, dx, dz) // A = X+Z of the point doubled
		m.Sub(t1, dx, dz) // B = X−Z
		m.Add(t2, ax, az) // C
		m.Sub(t3, ax, az) // D
		m.Mul(t3, t3, t0) // DA
		m.Mul(t2, t2, t1) // CB
		m.Add(ax, t3, t2)
		m.Sqr(ax, ax) // (DA + CB)²
		m.Sub(az, t3, t2)
		m.Sqr(az, az)
		m.Mul(az, az, x1) // x·(DA − CB)²
		m.Sqr(t0, t0)     // AA
		m.Sqr(t1, t1)     // BB
		m.Sub(t2, t0, t1) // E
		m.Add(t1, t1, t1) // 2·BB
		m.Mul(dx, t0, t1) // 2·AA·BB
		m.Add(t1, t1, t2)
		m.Mul(dz, t2, t1) // E·(2·BB + E)
	}
	return m.IsZero(z0)
}
