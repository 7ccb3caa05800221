package ref

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/ff"
)

// Fp2 is the math/big arithmetic context of F_{p²} = F_p[i]/(i²+1),
// built over Fp. The construction needs −1 to be a non-residue mod p,
// i.e. p ≡ 3 (mod 4) — the condition y² = x³ + x needs anyway.
type Fp2 struct {
	Fp Fp
}

// Fp2Elem is an element a + b·i of F_{p²} with a, b reduced mod p.
// The zero value is NOT usable; construct elements through an *Fp2
// context so both coordinates are non-nil.
type Fp2Elem struct {
	A *big.Int // real part
	B *big.Int // coefficient of i
}

// NewFp2 returns an extension-field context over fp. It fails unless
// p ≡ 3 (mod 4), the condition for x²+1 to be irreducible over F_p.
func NewFp2(fp *ff.Field) (*Fp2, error) {
	if fp.P().Bit(0) != 1 || fp.P().Bit(1) != 1 {
		return nil, errors.New("ref: F_{p²} = F_p[i]/(i²+1) needs p ≡ 3 (mod 4)")
	}
	return &Fp2{Fp: NewFp(fp)}, nil
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
func (e *Fp2) IsOne(x Fp2Elem) bool { return x.A.Cmp(big.NewInt(1)) == 0 && x.B.Sign() == 0 }

// Equal reports whether x == y.
func (e *Fp2) Equal(x, y Fp2Elem) bool {
	return x.A.Cmp(y.A) == 0 && x.B.Cmp(y.B) == 0
}

// Add returns x + y.
func (e *Fp2) Add(x, y Fp2Elem) Fp2Elem {
	return Fp2Elem{A: e.Fp.Add(x.A, y.A), B: e.Fp.Add(x.B, y.B)}
}

// Conj returns the conjugate a − b·i, the p-power Frobenius of F_{p²}
// (i^p = −i when p ≡ 3 mod 4).
func (e *Fp2) Conj(x Fp2Elem) Fp2Elem {
	return Fp2Elem{A: new(big.Int).Set(x.A), B: e.Fp.Neg(x.B)}
}

// Mul returns x·y by the schoolbook product
// (a+bi)(c+di) = (ac − bd) + (ad + bc)·i, a different schedule from the
// limb layer's Karatsuba form.
func (e *Fp2) Mul(x, y Fp2Elem) Fp2Elem {
	f := e.Fp
	return Fp2Elem{
		A: f.Sub(f.Mul(x.A, y.A), f.Mul(x.B, y.B)),
		B: f.Add(f.Mul(x.A, y.B), f.Mul(x.B, y.A)),
	}
}

// MulScalar returns x·c for c ∈ F_p.
func (e *Fp2) MulScalar(x Fp2Elem, c *big.Int) Fp2Elem {
	return Fp2Elem{A: e.Fp.Mul(x.A, c), B: e.Fp.Mul(x.B, c)}
}

// Sqr returns x².
func (e *Fp2) Sqr(x Fp2Elem) Fp2Elem { return e.Mul(x, x) }

// Norm returns a² + b² ∈ F_p, the product of x and its conjugate.
func (e *Fp2) Norm(x Fp2Elem) *big.Int {
	return e.Fp.Add(e.Fp.Sqr(x.A), e.Fp.Sqr(x.B))
}

// Inv returns x⁻¹ = conj(x)/norm(x). It panics on zero.
func (e *Fp2) Inv(x Fp2Elem) Fp2Elem {
	if e.IsZero(x) {
		panic("ref: inverse of zero in F_{p²}")
	}
	return e.MulScalar(e.Conj(x), e.Fp.Inv(e.Norm(x)))
}

// ExpBig returns x^k for a non-negative k: textbook square-and-multiply
// over Mul and Sqr, for any x, unitary or not.
func (e *Fp2) ExpBig(x Fp2Elem, k *big.Int) Fp2Elem {
	if k.Sign() < 0 {
		panic("ref: negative exponent in F_{p²}")
	}
	r := e.One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = e.Sqr(r)
		if k.Bit(i) == 1 {
			r = e.Mul(r, x)
		}
	}
	return r
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

// Bytes returns the fixed-width encoding A ‖ B (2·ByteLen bytes), the
// form pairing.GTBytes must produce for the same element.
func (e *Fp2) Bytes(x Fp2Elem) []byte {
	return append(e.Fp.Bytes(x.A), e.Fp.Bytes(x.B)...)
}

// SetBytes decodes an encoding produced by Bytes, rejecting malformed or
// non-canonical input.
func (e *Fp2) SetBytes(b []byte) (Fp2Elem, error) {
	n := e.Fp.ByteLen()
	if len(b) != 2*n {
		return Fp2Elem{}, fmt.Errorf("ref: F_{p²} encoding is %d bytes, want %d", len(b), 2*n)
	}
	a, err := e.Fp.SetBytes(b[:n])
	if err != nil {
		return Fp2Elem{}, err
	}
	bb, err := e.Fp.SetBytes(b[n:])
	if err != nil {
		return Fp2Elem{}, err
	}
	return Fp2Elem{A: a, B: bb}, nil
}

// Limbs converts x into the limb form of the field's Montgomery
// context, the representation the production F_{p²} code works on.
func (e *Fp2) Limbs(x Fp2Elem) ff.Fp2MontElem {
	m := e.Fp.Mont()
	out := ff.Fp2MontElem{A: m.NewElem(), B: m.NewElem()}
	m.ToMont(out.A, x.A)
	m.ToMont(out.B, x.B)
	return out
}

// FromLimbs converts a limb-form element back to math/big.
func (e *Fp2) FromLimbs(x ff.Fp2MontElem) Fp2Elem {
	out := func(x ff.MontElem) *big.Int { return new(big.Int).SetBytes(e.Fp.AppendMontBytes(nil, x)) }
	return Fp2Elem{A: out(x.A), B: out(x.B)}
}

// String renders the element as "a + b·i" for debugging.
func (x Fp2Elem) String() string {
	return fmt.Sprintf("%v + %v·i", x.A, x.B)
}
