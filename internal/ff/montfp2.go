package ff

// Fp2MontElem is an element a + b·i of F_{p²} = F_p[i]/(i²+1) with
// both coordinates in Montgomery form: the one representation of
// F_{p²} in the tree. The pairing's Miller loops, its final
// exponentiation and its target-group values (pairing.GT) all work on
// it; the math/big oracle tower lives in internal/ref.
type Fp2MontElem struct {
	A, B MontElem
}

// Fp2Mont bundles the quadratic-extension operations over the
// Montgomery backend M, whose modulus must be ≡ 3 (mod 4) so that i² = −1
// defines the extension (curve.New checks it). It is immutable and safe
// for concurrent use (scratch is caller-provided).
type Fp2Mont struct {
	M *Mont
}

// NewElem returns a fresh zero element, both coordinates in one
// allocation.
func (e *Fp2Mont) NewElem() Fp2MontElem {
	n := e.M.n
	limbs := make([]uint64, 2*n)
	return Fp2MontElem{A: limbs[:n:n], B: limbs[n:]}
}

// One returns a fresh multiplicative identity.
func (e *Fp2Mont) One() Fp2MontElem {
	x := e.NewElem()
	e.M.SetOne(x.A)
	return x
}

// Set copies src into dst.
func (e *Fp2Mont) Set(dst *Fp2MontElem, src Fp2MontElem) {
	copy(dst.A, src.A)
	copy(dst.B, src.B)
}

// SetOne sets dst = 1.
func (e *Fp2Mont) SetOne(dst *Fp2MontElem) {
	e.M.SetOne(dst.A)
	e.M.SetZero(dst.B)
}

// IsZero reports whether x == 0.
func (e *Fp2Mont) IsZero(x Fp2MontElem) bool { return e.M.IsZero(x.A) && e.M.IsZero(x.B) }

// IsOne reports whether x == 1.
func (e *Fp2Mont) IsOne(x Fp2MontElem) bool { return e.M.IsOne(x.A) && e.M.IsZero(x.B) }

// Equal reports whether x == y (Montgomery form is canonical).
func (e *Fp2Mont) Equal(x, y Fp2MontElem) bool {
	return e.M.Equal(x.A, y.A) && e.M.Equal(x.B, y.B)
}

// ConjInto sets dst = conj(x) = a − b·i; dst may alias x. Conjugation is
// the p-power Frobenius of F_{p²} (i^p = −i for p ≡ 3 mod 4), and for
// unitary elements (norm 1) it equals inversion — the identity behind
// ExpUnitaryWNAFInto and the Frobenius final-exponentiation step.
func (e *Fp2Mont) ConjInto(dst *Fp2MontElem, x Fp2MontElem) {
	if &dst.A[0] != &x.A[0] {
		copy(dst.A, x.A)
	}
	e.M.Neg(dst.B, x.B)
}

// Fp2MontScratch holds the temporaries of the destination-passing
// F_{p²} limb operations; one per goroutine.
type Fp2MontScratch struct {
	t0, t1, t2, t3 MontElem
}

// MulInto sets dst = x·y with the 3-multiplication Karatsuba schedule
// on limb vectors; dst may alias x or y.
func (e *Fp2Mont) MulInto(dst *Fp2MontElem, x, y Fp2MontElem, s *Fp2MontScratch) {
	m := e.M
	m.Mul(s.t0, x.A, y.A) // ac
	m.Mul(s.t1, x.B, y.B) // bd
	m.Add(s.t2, x.A, x.B)
	m.Add(s.t3, y.A, y.B)
	m.Mul(s.t2, s.t2, s.t3) // (a+b)(c+d)
	m.Add(s.t3, s.t0, s.t1) // ac + bd; all reads of x, y are done
	m.Sub(dst.B, s.t2, s.t3)
	m.Sub(dst.A, s.t0, s.t1)
}

// SqrInto sets dst = x² via (a+b)(a−b) + 2ab·i; dst may alias x.
func (e *Fp2Mont) SqrInto(dst *Fp2MontElem, x Fp2MontElem, s *Fp2MontScratch) {
	m := e.M
	m.Add(s.t0, x.A, x.B)
	m.Sub(s.t1, x.A, x.B)
	m.Mul(s.t2, x.A, x.B)
	m.Mul(dst.A, s.t0, s.t1)
	m.Double(dst.B, s.t2)
}

// InvInto sets dst = x⁻¹ = conj(x)/norm(x), with the one base-field
// inversion by Mont.Inv; dst may alias x. Panics on zero.
func (e *Fp2Mont) InvInto(dst *Fp2MontElem, x Fp2MontElem, s *Fp2MontScratch) {
	if e.IsZero(x) {
		panic("ff: inverse of zero in F_{p²} (Montgomery backend)")
	}
	m := e.M
	m.Sqr(s.t0, x.A)
	m.Sqr(s.t1, x.B)
	m.Add(s.t0, s.t0, s.t1) // norm = a² + b²
	m.Inv(s.t0, s.t0)
	m.Mul(dst.A, x.A, s.t0)
	m.Mul(dst.B, x.B, s.t0)
	m.Neg(dst.B, dst.B)
}

// expUnitaryWindow is the wNAF window width of ExpUnitaryWNAFInto.
// Width 5 precomputes 2^(5-2) = 8 odd powers and cuts the multiplication
// count from k/2 (square-and-multiply) to ~k/6 for a k-bit exponent.
const expUnitaryWindow = 5
