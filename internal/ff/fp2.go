package ff

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Fp2 is an arithmetic context for the quadratic extension
// F_{p²} = F_p[i]/(i²+1). The construction requires -1 to be a quadratic
// non-residue mod p, i.e. p ≡ 3 (mod 4) — exactly the condition the
// supersingular curve y² = x³ + x needs anyway.
type Fp2 struct {
	Fp *Field

	// mont is the limb-vector layer of this context; Exp and ExpUnitary
	// run on it end-to-end, converting once at the boundary.
	mont *Fp2Mont
}

// Fp2Elem is an element a + b·i of F_{p²} with a, b reduced mod p.
// The zero value is NOT usable; construct elements through an *Fp2
// context so both limbs are non-nil.
type Fp2Elem struct {
	A *big.Int // real part
	B *big.Int // coefficient of i
}

// NewFp2 returns an extension-field context over fp. It fails unless
// p ≡ 3 (mod 4), the condition for x²+1 to be irreducible over F_p.
func NewFp2(fp *Field) (*Fp2, error) {
	if new(big.Int).Mod(fp.p, big4).Cmp(big3) != 0 {
		return nil, errors.New("ff: F_{p²} = F_p[i]/(i²+1) needs p ≡ 3 (mod 4)")
	}
	return &Fp2{Fp: fp, mont: &Fp2Mont{M: fp.mont}}, nil
}

// Zero returns the additive identity.
func (e *Fp2) Zero() Fp2Elem { return Fp2Elem{A: new(big.Int), B: new(big.Int)} }

// One returns the multiplicative identity.
func (e *Fp2) One() Fp2Elem { return Fp2Elem{A: big.NewInt(1), B: new(big.Int)} }

// New constructs the element a + b·i, reducing both parts mod p.
func (e *Fp2) New(a, b *big.Int) Fp2Elem {
	return Fp2Elem{A: e.Fp.Reduce(a), B: e.Fp.Reduce(b)}
}

// IsZero reports whether x == 0.
func (e *Fp2) IsZero(x Fp2Elem) bool { return x.A.Sign() == 0 && x.B.Sign() == 0 }

// IsOne reports whether x == 1.
func (e *Fp2) IsOne(x Fp2Elem) bool { return x.A.Cmp(big1) == 0 && x.B.Sign() == 0 }

// Equal reports whether x == y.
func (e *Fp2) Equal(x, y Fp2Elem) bool {
	return x.A.Cmp(y.A) == 0 && x.B.Cmp(y.B) == 0
}

// Add returns x + y.
func (e *Fp2) Add(x, y Fp2Elem) Fp2Elem {
	return Fp2Elem{A: e.Fp.Add(x.A, y.A), B: e.Fp.Add(x.B, y.B)}
}

// Sub returns x - y.
func (e *Fp2) Sub(x, y Fp2Elem) Fp2Elem {
	return Fp2Elem{A: e.Fp.Sub(x.A, y.A), B: e.Fp.Sub(x.B, y.B)}
}

// Neg returns -x.
func (e *Fp2) Neg(x Fp2Elem) Fp2Elem {
	return Fp2Elem{A: e.Fp.Neg(x.A), B: e.Fp.Neg(x.B)}
}

// Conj returns the conjugate a - b·i. Conjugation is the p-power
// Frobenius automorphism of F_{p²} (since i^p = -i when p ≡ 3 mod 4),
// which the pairing's final exponentiation exploits.
func (e *Fp2) Conj(x Fp2Elem) Fp2Elem {
	return Fp2Elem{A: new(big.Int).Set(x.A), B: e.Fp.Neg(x.B)}
}

// Mul returns x·y using the Karatsuba-style 3-multiplication schedule:
// (a+bi)(c+di) = (ac - bd) + ((a+b)(c+d) - ac - bd)·i.
func (e *Fp2) Mul(x, y Fp2Elem) Fp2Elem {
	ac := e.Fp.Mul(x.A, y.A)
	bd := e.Fp.Mul(x.B, y.B)
	cross := e.Fp.Mul(e.Fp.Add(x.A, x.B), e.Fp.Add(y.A, y.B))
	return Fp2Elem{
		A: e.Fp.Sub(ac, bd),
		B: e.Fp.Sub(cross, e.Fp.Add(ac, bd)),
	}
}

// MulScalar returns x·c for c ∈ F_p.
func (e *Fp2) MulScalar(x Fp2Elem, c *big.Int) Fp2Elem {
	return Fp2Elem{A: e.Fp.Mul(x.A, c), B: e.Fp.Mul(x.B, c)}
}

// Sqr returns x² using (a+bi)² = (a+b)(a-b) + 2ab·i.
func (e *Fp2) Sqr(x Fp2Elem) Fp2Elem {
	re := e.Fp.Mul(e.Fp.Add(x.A, x.B), e.Fp.Sub(x.A, x.B))
	im := e.Fp.Double(e.Fp.Mul(x.A, x.B))
	return Fp2Elem{A: re, B: im}
}

// Norm returns the norm a² + b² ∈ F_p (the product of x and its
// conjugate).
func (e *Fp2) Norm(x Fp2Elem) *big.Int {
	return e.Fp.Add(e.Fp.Sqr(x.A), e.Fp.Sqr(x.B))
}

// Inv returns x⁻¹ = conj(x)/norm(x). It panics on zero, which indicates
// a logic error in the caller.
func (e *Fp2) Inv(x Fp2Elem) Fp2Elem {
	if e.IsZero(x) {
		panic("ff: inverse of zero in F_{p²}")
	}
	nInv := e.Fp.Inv(e.Norm(x))
	return Fp2Elem{A: e.Fp.Mul(x.A, nInv), B: e.Fp.Mul(e.Fp.Neg(x.B), nInv)}
}

// Exp returns x^k for a non-negative exponent k. The whole ladder runs
// on limb vectors: one conversion each way at the boundary, no big.Int
// work per bit.
func (e *Fp2) Exp(x Fp2Elem, k *big.Int) Fp2Elem {
	if k.Sign() < 0 {
		panic("ff: negative exponent in F_{p²}")
	}
	em := e.mont
	xm := em.NewElem()
	em.ToMont(&xm, x)
	em.ExpInto(&xm, xm, k, em.NewScratch())
	return em.FromMont(xm)
}

// ExpBig is the math/big oracle for Exp and ExpUnitary: textbook
// square-and-multiply over the allocating Mul and Sqr, never touching
// the limb layer. The differential tests and the affine reference
// pairing's final exponentiation use it.
func (e *Fp2) ExpBig(x Fp2Elem, k *big.Int) Fp2Elem {
	r := e.One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = e.Sqr(r)
		if k.Bit(i) == 1 {
			r = e.Mul(r, x)
		}
	}
	return r
}

// ExpUnitary returns x^k for a UNITARY x — an element of norm 1, such
// as any pairing output — exploiting that inversion is a free
// conjugation there: the exponent is recoded in width-5 signed NAF,
// roughly a third fewer multiplications than Exp. The unitarity
// precondition is the caller's responsibility (the result is wrong
// otherwise); it is preserved by every GT operation, so scheme-level
// callers exponentiate pairing values with it (Decrypt, Encryptor,
// the final exponentiation's cofactor step).
func (e *Fp2) ExpUnitary(x Fp2Elem, k *big.Int) Fp2Elem {
	if k.Sign() < 0 {
		panic("ff: negative exponent in F_{p²}")
	}
	em := e.mont
	xm := em.NewElem()
	em.ToMont(&xm, x)
	em.ExpUnitaryInto(&xm, xm, k, em.NewScratch())
	return em.FromMont(xm)
}

// Rand returns a uniformly random element of F_{p²}.
func (e *Fp2) Rand(rng io.Reader) (Fp2Elem, error) {
	a, err := e.Fp.Rand(rng)
	if err != nil {
		return Fp2Elem{}, err
	}
	b, err := e.Fp.Rand(rng)
	if err != nil {
		return Fp2Elem{}, err
	}
	return Fp2Elem{A: a, B: b}, nil
}

// Bytes returns the fixed-width encoding A ‖ B (2·ByteLen bytes).
func (e *Fp2) Bytes(x Fp2Elem) []byte {
	out := make([]byte, 0, 2*e.Fp.byteLen)
	out = append(out, e.Fp.Bytes(x.A)...)
	return append(out, e.Fp.Bytes(x.B)...)
}

// SetBytes decodes an encoding produced by Bytes, rejecting malformed or
// non-canonical input.
func (e *Fp2) SetBytes(b []byte) (Fp2Elem, error) {
	if len(b) != 2*e.Fp.byteLen {
		return Fp2Elem{}, fmt.Errorf("ff: F_{p²} encoding is %d bytes, want %d", len(b), 2*e.Fp.byteLen)
	}
	a, err := e.Fp.SetBytes(b[:e.Fp.byteLen])
	if err != nil {
		return Fp2Elem{}, err
	}
	bb, err := e.Fp.SetBytes(b[e.Fp.byteLen:])
	if err != nil {
		return Fp2Elem{}, err
	}
	return Fp2Elem{A: a, B: bb}, nil
}

// String renders the element as "a + b·i" for debugging.
func (x Fp2Elem) String() string {
	return fmt.Sprintf("%v + %v·i", x.A, x.B)
}
