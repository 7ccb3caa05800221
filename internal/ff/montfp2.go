package ff

import (
	"math/big"
	"slices"
)

// Fp2MontElem is an element a + b·i of F_{p²} with both coordinates in
// Montgomery form. It is the limb-vector form of Fp2Elem: the pairing's
// Miller loops, the final exponentiation and the G2 exponentiation hot
// paths all work on this representation and convert at the boundary.
type Fp2MontElem struct {
	A, B MontElem
}

// Fp2Mont bundles the quadratic-extension operations over the
// Montgomery backend. Obtain one from Fp2.Mont; it is immutable and
// safe for concurrent use (scratch is caller-provided).
type Fp2Mont struct {
	M *Mont
}

// Mont returns the limb-vector context of the extension field; it is
// never nil.
func (e *Fp2) Mont() *Fp2Mont { return e.mont }

// NewElem returns a fresh zero element.
func (e *Fp2Mont) NewElem() Fp2MontElem {
	return Fp2MontElem{A: e.M.NewElem(), B: e.M.NewElem()}
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

// ToMont converts a reduced Fp2Elem into Montgomery form.
func (e *Fp2Mont) ToMont(dst *Fp2MontElem, x Fp2Elem) {
	e.M.ToMont(dst.A, x.A)
	e.M.ToMont(dst.B, x.B)
}

// FromMont converts back to the big.Int representation.
func (e *Fp2Mont) FromMont(x Fp2MontElem) Fp2Elem {
	return Fp2Elem{A: e.M.FromMont(nil, x.A), B: e.M.FromMont(nil, x.B)}
}

// AddInto sets dst = x + y; dst may alias either operand.
func (e *Fp2Mont) AddInto(dst *Fp2MontElem, x, y Fp2MontElem) {
	e.M.Add(dst.A, x.A, y.A)
	e.M.Add(dst.B, x.B, y.B)
}

// SubInto sets dst = x - y; dst may alias either operand.
func (e *Fp2Mont) SubInto(dst *Fp2MontElem, x, y Fp2MontElem) {
	e.M.Sub(dst.A, x.A, y.A)
	e.M.Sub(dst.B, x.B, y.B)
}

// ConjInto sets dst = conj(x) = a - b·i; dst may alias x. As in the
// big.Int path, conjugation is the p-power Frobenius of F_{p²}, and for
// unitary elements (norm 1) it equals inversion — the identity behind
// ExpUnitaryInto and the Frobenius final-exponentiation step.
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

// NewScratch allocates scratch space sized for this context.
func (e *Fp2Mont) NewScratch() *Fp2MontScratch {
	return &Fp2MontScratch{
		t0: e.M.NewElem(), t1: e.M.NewElem(), t2: e.M.NewElem(), t3: e.M.NewElem(),
	}
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
// inversion on the Fermat limb path; dst may alias x. Panics on zero.
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

// ExpInto sets dst = x^k for a non-negative exponent, square-and-
// multiply on limb vectors; dst may alias x.
func (e *Fp2Mont) ExpInto(dst *Fp2MontElem, x Fp2MontElem, k *big.Int, s *Fp2MontScratch) {
	if k.Sign() < 0 {
		panic("ff: negative exponent in F_{p²}")
	}
	base := e.NewElem()
	e.Set(&base, x)
	acc := e.One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		e.SqrInto(&acc, acc, s)
		if k.Bit(i) == 1 {
			e.MulInto(&acc, acc, base, s)
		}
	}
	e.Set(dst, acc)
}

// expUnitaryWindow is the wNAF window width of ExpUnitaryInto. Width 5
// precomputes 2^(5-2) = 8 odd powers and cuts the multiplication count
// from k/2 (square-and-multiply) to ~k/6 for a k-bit exponent.
const expUnitaryWindow = 5

// ExpUnitaryInto sets dst = x^k for a UNITARY x (norm(x) = 1, i.e.
// x·conj(x) = 1 — every pairing output and every f^(p−1) value
// qualifies) and non-negative k. Because inversion is a free
// conjugation for unitary elements, the exponent is recoded in signed
// windowed NAF: negative digits multiply by a conjugated table entry
// instead of requiring a stored inverse. dst may alias x. The
// precondition is the caller's responsibility; for non-unitary x the
// result is simply wrong (differential tests pin the unitary case
// against ExpInto).
func (e *Fp2Mont) ExpUnitaryInto(dst *Fp2MontElem, x Fp2MontElem, k *big.Int, s *Fp2MontScratch) {
	if k.Sign() < 0 {
		panic("ff: negative exponent in F_{p²}")
	}
	if k.Sign() == 0 {
		e.SetOne(dst)
		return
	}
	// One-shot exponent: recode here and run the arena-backed ladder.
	// Callers with a FIXED exponent should recode once with UnitaryWNAF
	// and call ExpUnitaryWNAFInto directly (see arena.go).
	a := e.M.GetArena()
	defer a.Release()
	e.ExpUnitaryWNAFInto(dst, x, UnitaryWNAF(k), s, a)
}

// AppendWNAF appends the width-w non-adjacent form of the non-negative
// k to dst, least significant digit first: digits are zero or odd in
// (−2^(w−1), 2^(w−1)), non-zero ones at least w−1 zeros apart, the last
// one non-zero. It is the tree's one signed-window recoder (w ≤ 8), and
// reads k bit by bit with a carry: into a reused dst it allocates
// nothing.
func AppendWNAF(dst []int8, k *big.Int, w uint) []int8 {
	if k.Sign() < 0 {
		panic("ff: negative scalar")
	}
	var zeros [8]int8
	dst, carry := slices.Grow(dst, k.BitLen()+1), uint(0)
	for i, n := 0, k.BitLen(); i < n || carry != 0; {
		if b := k.Bit(i) + carry; b != 1 { // what is left of k is even
			carry = b >> 1
			dst = append(dst, 0)
			i++
			continue
		}
		v := carry
		for j := uint(0); j < w; j++ {
			v += k.Bit(i+int(j)) << j
		}
		carry = v >> (w - 1) // v ≥ 2^(w−1): take v − 2^w and carry one
		dst = append(dst, int8(int(v)-int(carry<<w)))
		if i += int(w); i < n || carry != 0 {
			dst = append(dst, zeros[:w-1]...)
		}
	}
	return dst
}
