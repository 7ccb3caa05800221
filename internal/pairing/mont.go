package pairing

import (
	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
)

// millerStateMont walks the Miller loop's point accumulator in Jacobian
// coordinates (X : Y : Z) ↔ affine (X/Z², Y/Z³) on Montgomery limb
// vectors, producing for each doubling/addition step the coefficients
// (A, B, C) of the line value
//
//	g = A·x_Q + B + C·y_Q·i  ∈ F_{p²}
//
// evaluated at the distorted point ψ(Q) = (−x_Q, i·y_Q). The
// coefficients equal the affine line value scaled by a non-zero F_p
// factor (2YZ³ for tangents, Z_new = Z·H for chords), which the final
// exponentiation kills — the denominator-elimination argument extended
// to projective denominators. No step performs a field inversion;
// every field operation is a fixed-width CIOS multiplication or a
// lazy-reduced add/sub. The affine oracle in internal/ref computes the
// same lines with a different algorithm, and the differential tests
// hold this walk to it. All state is carved from a caller-held arena,
// so a full Miller loop allocates nothing.
type millerStateMont struct {
	m       *ff.Mont
	X, Y, Z ff.MontElem

	t1, t2, t3, t4, t5, t6 ff.MontElem
}

func newMillerStateMontIn(m *ff.Mont, px, py ff.MontElem, a *ff.Arena) millerStateMont {
	st := millerStateMont{
		m: m,
		X: a.Elem(), Y: a.Elem(), Z: a.Elem(),
		t1: a.Elem(), t2: a.Elem(), t3: a.Elem(),
		t4: a.Elem(), t5: a.Elem(), t6: a.Elem(),
	}
	m.Set(st.X, px)
	m.Set(st.Y, py)
	m.SetOne(st.Z)
	return st
}

func (st *millerStateMont) isInf() bool { return st.m.IsZero(st.Z) }

// dbl advances V ← 2V and writes the tangent-line coefficients into
// (a, b, c). It returns false when the step contributes the factor 1
// instead (V at infinity, or a vertical tangent at a 2-torsion point),
// mirroring the affine oracle's tangent step exactly.
//
// With M = 3X² + Z⁴ (curve a-coefficient 1) and the affine tangent slope
// λ = M/(2YZ), scaling the affine line by 2YZ³ gives
//
//	A = M·Z², B = M·X − 2Y², C = 2YZ³,
//
// and the point update is the standard Jacobian doubling
// X' = M² − 2S, Y' = M(S − X') − 8Y⁴, Z' = 2YZ with S = 4XY².
func (st *millerStateMont) dbl(a, b, c ff.MontElem) bool {
	if st.isInf() {
		return false
	}
	m := st.m
	if m.IsZero(st.Y) {
		m.SetZero(st.Z)
		return false
	}
	yy := st.t1
	m.Sqr(yy, st.Y) // Y²
	zz := st.t2
	m.Sqr(zz, st.Z) // Z²
	mm := st.t3
	m.Sqr(mm, zz) // Z⁴ (a = 1 ⇒ a·Z⁴ = Z⁴)
	sq := st.t4
	m.Sqr(sq, st.X) // X²
	m.Add(mm, mm, sq)
	m.Add(mm, mm, sq)
	m.Add(mm, mm, sq) // M = 3X² + Z⁴

	// Line coefficients from the pre-update point.
	m.Mul(a, mm, zz)    // A = M·Z²
	m.Mul(b, mm, st.X)  //
	m.Double(st.t4, yy) // 2Y² (X² no longer needed)
	m.Sub(b, b, st.t4)  // B = M·X − 2Y²
	zNew := st.t5
	m.Mul(zNew, st.Y, st.Z)
	m.Double(zNew, zNew) // Z' = 2YZ
	m.Mul(c, zNew, zz)   // C = 2YZ·Z² = 2YZ³

	// Point update; every read of the old X, Y happens before its write.
	s := st.t6
	m.Mul(s, st.X, yy)
	m.Double(s, s)
	m.Double(s, s) // S = 4XY²
	m.Sqr(st.X, mm)
	m.Sub(st.X, st.X, s)
	m.Sub(st.X, st.X, s) // X' = M² − 2S
	m.Sqr(yy, yy)
	m.Double(yy, yy)
	m.Double(yy, yy)
	m.Double(yy, yy)      // 8Y⁴
	m.Sub(s, s, st.X)     // S − X'
	m.Mul(st.Y, mm, s)    //
	m.Sub(st.Y, st.Y, yy) // Y' = M(S − X') − 8Y⁴
	m.Set(st.Z, zNew)
	return true
}

// add advances V ← V + P for the fixed Montgomery-form affine point
// (px, py), which is never the identity, and writes the chord-line
// coefficients into (a, b, c); it returns false when the step
// contributes the factor 1 (V at infinity, or the vertical chord
// V + (−V)), mirroring the affine oracle's chord step.
//
// Mixed Jacobian+affine addition: with U2 = x_p·Z², S2 = y_p·Z³,
// H = U2 − X, R = S2 − Y, the affine chord slope is λ = R/(Z·H);
// scaling the affine line by Z' = Z·H gives
//
//	A = R, B = R·x_p − Z'·y_p, C = Z',
//
// and X3 = R² − H³ − 2XH², Y3 = R(XH² − X3) − Y·H³, Z3 = Z·H.
func (st *millerStateMont) add(px, py ff.MontElem, a, b, c ff.MontElem) bool {
	m := st.m
	if st.isInf() {
		m.Set(st.X, px)
		m.Set(st.Y, py)
		m.SetOne(st.Z)
		return false
	}
	zz := st.t1
	m.Sqr(zz, st.Z) // Z²
	u2 := st.t2
	m.Mul(u2, px, zz) // x_p·Z²
	s2 := st.t3
	m.Mul(s2, zz, st.Z) //
	m.Mul(s2, py, s2)   // y_p·Z³
	h := u2
	m.Sub(h, u2, st.X) // H = U2 − X
	r := s2
	m.Sub(r, s2, st.Y) // R = S2 − Y
	if m.IsZero(h) {
		if m.IsZero(r) {
			// V and P coincide: the chord degenerates to the tangent,
			// exactly as in the affine oracle.
			return st.dbl(a, b, c)
		}
		// Vertical chord V + (−V): factor 1, accumulator to infinity.
		m.SetZero(st.Z)
		return false
	}
	zNew := st.t4
	m.Mul(zNew, st.Z, h) // Z3 = Z·H

	// Line coefficients.
	m.Set(a, r)
	m.Mul(st.t5, zNew, py)
	m.Mul(b, r, px)
	m.Sub(b, b, st.t5) // B = R·x_p − Z3·y_p
	m.Set(c, zNew)     // C = Z3

	// Point update.
	hh := st.t5
	m.Sqr(hh, h) // H²
	xh := st.t6
	m.Mul(xh, st.X, hh) // X·H²
	m.Mul(hh, hh, h)    // H³ (H² no longer needed)
	m.Sqr(st.X, r)
	m.Sub(st.X, st.X, hh)
	m.Sub(st.X, st.X, xh)
	m.Sub(st.X, st.X, xh) // X3 = R² − H³ − 2XH²
	m.Mul(st.Y, st.Y, hh) // Y·H³
	m.Sub(xh, xh, st.X)   // XH² − X3
	m.Mul(xh, r, xh)      // R(XH² − X3)
	m.Sub(st.Y, xh, st.Y) // Y3
	m.Set(st.Z, zNew)
	return true
}

// millerMontIn evaluates the Miller function f_{q,P} at ψ(Q) with the
// Jacobian inversion-free loop, without the final exponentiation, every
// temporary carved from the caller's arena. P and Q must be
// non-identity subgroup points; the returned value is in Montgomery
// form and valid until the arena is released. It differs from the
// affine oracle's value by a non-zero F_p^* factor per line, which the
// final exponentiation eliminates.
func (pr *Pairing) millerMontIn(p, q curve.Point, ar *ff.Arena) ff.Fp2MontElem {
	m, e2m := pr.m, pr.e2m
	px, py := p.Limbs()
	qx, qy := q.Limbs()
	st := newMillerStateMontIn(m, px, py, ar)
	f := e2m.OneIn(ar)
	g := e2m.ElemIn(ar)
	s := e2m.ScratchIn(ar)
	a, b, c := ar.Elem(), ar.Elem(), ar.Elem()
	for _, addBit := range pr.schedule {
		e2m.SqrInto(&f, f, s)
		if st.dbl(a, b, c) {
			m.Mul(g.A, a, qx)
			m.Add(g.A, g.A, b)
			m.Mul(g.B, c, qy)
			e2m.MulInto(&f, f, g, s)
		}
		if addBit {
			if st.add(px, py, a, b, c) {
				m.Mul(g.A, a, qx)
				m.Add(g.A, g.A, b)
				m.Mul(g.B, c, qy)
				e2m.MulInto(&f, f, g, s)
			}
		}
	}
	return f
}

// finalExpMontIn raises a Montgomery-form Miller value to (p²−1)/q. The
// (p−1) factor is the Frobenius identity z^(p−1) = conj(z)·z⁻¹ — one
// conjugation and one F_{p²} inversion instead of a |p|-bit
// exponentiation. The result of that step is unitary (its norm is
// N(z)^(p−1) = 1), so the remaining cofactor exponentiation runs the
// signed-window unitary ladder over the cached recoding of h. The
// result lives in the arena.
func (pr *Pairing) finalExpMontIn(f ff.Fp2MontElem, a *ff.Arena) ff.Fp2MontElem {
	e2m := pr.e2m
	if e2m.IsZero(f) {
		// Cannot happen for valid subgroup inputs (every line value has
		// imaginary part y_Q ≠ 0); treat as degenerate.
		return e2m.OneIn(a)
	}
	s := e2m.ScratchIn(a)
	t := e2m.ElemIn(a)
	e2m.InvInto(&t, f, s)
	conj := e2m.ElemIn(a)
	e2m.ConjInto(&conj, f)
	e2m.MulInto(&t, conj, t, s) // f^(p−1), unitary from here on
	e2m.ExpUnitaryWNAFInto(&t, t, pr.hDigits, s, a)
	return t
}

// millerPreparedMontIn evaluates the Miller function f_{q,P} at ψ(Q)
// from the stored line schedule of P: one CIOS multiplication and one
// addition per line, no point arithmetic, all temporaries in the
// caller's arena. Q must be a non-identity subgroup point and pp must
// not be the prepared identity. The value equals the affine oracle's
// Miller value exactly (same normalised lines).
func (pr *Pairing) millerPreparedMontIn(pp *PreparedPoint, q curve.Point, ar *ff.Arena) ff.Fp2MontElem {
	m, e2m := pr.m, pr.e2m
	qx, qy := q.Limbs()
	f := e2m.OneIn(ar)
	// The imaginary part of every line value is the constant y_Q.
	g := ff.Fp2MontElem{A: ar.Elem(), B: qy}
	s := e2m.ScratchIn(ar)
	for k := range pp.steps {
		st := &pp.steps[k]
		e2m.SqrInto(&f, f, s)
		if !st.dbl.vertical {
			m.Mul(g.A, st.dbl.lambda, qx)
			m.Add(g.A, g.A, st.dbl.mu)
			e2m.MulInto(&f, f, g, s)
		}
		if st.hasAdd && !st.add.vertical {
			m.Mul(g.A, st.add.lambda, qx)
			m.Add(g.A, g.A, st.add.mu)
			e2m.MulInto(&f, f, g, s)
		}
	}
	return f
}
