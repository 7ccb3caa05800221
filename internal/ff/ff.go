// Package ff implements arithmetic in the prime field F_p and its
// quadratic extension F_{p²} = F_p[i]/(i²+1), the two fields underlying
// the supersingular pairing group used throughout this repository.
//
// Elements of F_p are represented as fully reduced *big.Int values in
// [0, p). All operations go through a *Field context that carries the
// modulus and derived constants, so multiple parameter sets (e.g. test
// and production sizes) can coexist in one process.
//
// There are two layers. The math/big methods on Field and Fp2 are the
// plain, allocating textbook arithmetic: API boundaries (encodings,
// hashing, sampling) use them, and so does the affine oracle the
// differential tests compare against. The hot paths — pairing, Jacobian
// ladders, F_{p²} exponentiation — run on the fixed-limb Montgomery
// layer (Mont, Fp2Mont) that every Field carries; TestMont* and the
// Fuzz* targets pin it operation by operation against the math/big
// layer. Neither layer is constant time; see the repository README for
// the threat-model discussion.
package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	// ErrNotSquare is returned by Sqrt when the operand is a quadratic
	// non-residue.
	ErrNotSquare = errors.New("ff: element is not a square")

	big1 = big.NewInt(1)
	big2 = big.NewInt(2)
	big3 = big.NewInt(3)
	big4 = big.NewInt(4)
)

// Field is an arithmetic context for the prime field F_p.
type Field struct {
	p       *big.Int // modulus, an odd prime
	byteLen int      // fixed-width encoding length

	pMinus1 *big.Int // p-1, cached for Rand and exponent reductions

	// mont is the fixed-limb Montgomery layer, never nil: NewField
	// refuses a modulus it cannot be built for.
	mont *Mont
}

// NewField returns a field context for the odd prime p of at most
// 64·maxMontLimbs bits. The primality of p is the caller's
// responsibility (parameter generation checks it); only structural
// requirements are validated here.
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, errors.New("ff: modulus must be a positive integer")
	}
	if p.Bit(0) == 0 || p.Cmp(big3) < 0 {
		return nil, errors.New("ff: modulus must be an odd prime >= 3")
	}
	if p.BitLen() > 64*maxMontLimbs {
		return nil, fmt.Errorf("ff: modulus is %d bits, the Type-1 field stops at %d; for higher security use the BLS12-381 backend (-backend bls12381)",
			p.BitLen(), 64*maxMontLimbs)
	}
	f := &Field{
		p:       new(big.Int).Set(p),
		byteLen: (p.BitLen() + 7) / 8,
		pMinus1: new(big.Int).Sub(p, big1),
	}
	f.mont = newMont(f.p)
	return f, nil
}

// P returns a copy of the field modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.p) }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.p.BitLen() }

// ByteLen returns the fixed-width byte length used by Bytes/SetBytes.
func (f *Field) ByteLen() int { return f.byteLen }

// IsResidue reports whether x (reduced or not) is in [0, p).
func (f *Field) IsResidue(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(f.p) < 0
}

// Reduce returns x mod p as a new integer.
func (f *Field) Reduce(x *big.Int) *big.Int {
	return new(big.Int).Mod(x, f.p)
}

// Add returns a+b mod p.
func (f *Field) Add(a, b *big.Int) *big.Int {
	r := new(big.Int).Add(a, b)
	if r.Cmp(f.p) >= 0 {
		r.Sub(r, f.p)
	}
	return r
}

// Sub returns a-b mod p.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	r := new(big.Int).Sub(a, b)
	if r.Sign() < 0 {
		r.Add(r, f.p)
	}
	return r
}

// Neg returns -a mod p.
func (f *Field) Neg(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(f.p, a)
}

// Mul returns a*b mod p.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), f.p)
}

// Sqr returns a² mod p.
func (f *Field) Sqr(a *big.Int) *big.Int { return f.Mul(a, a) }

// Double returns 2a mod p.
func (f *Field) Double(a *big.Int) *big.Int { return f.Add(a, a) }

// Inv returns a⁻¹ mod p. It panics if a ≡ 0, which indicates a logic
// error in the caller (all call sites guard the zero case).
func (f *Field) Inv(a *big.Int) *big.Int {
	r := new(big.Int).ModInverse(a, f.p)
	if r == nil {
		panic("ff: inverse of zero (or modulus not prime)")
	}
	return r
}

// Exp returns a^e mod p for a non-negative exponent e.
func (f *Field) Exp(a, e *big.Int) *big.Int {
	return new(big.Int).Exp(a, e, f.p)
}

// InvBatch returns the inverses of all xs with a single modular
// inversion (Montgomery's trick: invert the running product, then peel
// the prefix products back off). It panics if any element is zero, like
// Inv. The one inversion plus 3(n-1) multiplications replace n
// inversions, which is what makes fixed-argument pairing precomputation
// cheap to normalise.
func (f *Field) InvBatch(xs []*big.Int) []*big.Int {
	n := len(xs)
	out := make([]*big.Int, n)
	if n == 0 {
		return out
	}
	// prefix[i] = x_0·…·x_{i-1}; prefix[0] = 1.
	prefix := make([]*big.Int, n)
	acc := big1
	for i, x := range xs {
		prefix[i] = acc
		acc = f.Mul(acc, x)
	}
	inv := f.Inv(acc) // panics on zero product, i.e. any zero input
	for i := n - 1; i >= 0; i-- {
		out[i] = f.Mul(inv, prefix[i])
		inv = f.Mul(inv, xs[i])
	}
	return out
}

// Legendre returns the Legendre symbol (a/p): 1 if a is a non-zero
// square, -1 if a non-square, 0 if a ≡ 0 (mod p).
func (f *Field) Legendre(a *big.Int) int {
	return big.Jacobi(new(big.Int).Mod(a, f.p), f.p)
}

// Sqrt returns a square root of a mod p, or ErrNotSquare if none exists.
// Of the two roots ±y it returns the one computed by big.Int.ModSqrt
// (callers that need a canonical choice normalise via parity).
func (f *Field) Sqrt(a *big.Int) (*big.Int, error) {
	r := new(big.Int).ModSqrt(new(big.Int).Mod(a, f.p), f.p)
	if r == nil {
		return nil, ErrNotSquare
	}
	return r, nil
}

// Rand returns a uniformly random field element drawn from rng
// (crypto/rand.Reader if rng is nil).
func (f *Field) Rand(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	r, err := rand.Int(rng, f.p)
	if err != nil {
		return nil, fmt.Errorf("ff: sampling field element: %w", err)
	}
	return r, nil
}

// RandNonZero returns a uniformly random non-zero field element.
func (f *Field) RandNonZero(rng io.Reader) (*big.Int, error) {
	for {
		r, err := f.Rand(rng)
		if err != nil {
			return nil, err
		}
		if r.Sign() != 0 {
			return r, nil
		}
	}
}

// Bytes returns the fixed-width big-endian encoding of a reduced element.
func (f *Field) Bytes(a *big.Int) []byte {
	return a.FillBytes(make([]byte, f.byteLen))
}

// SetBytes decodes a fixed-width big-endian encoding produced by Bytes.
// It rejects encodings of the wrong length or values >= p, so every
// field element has exactly one valid encoding.
func (f *Field) SetBytes(b []byte) (*big.Int, error) {
	if len(b) != f.byteLen {
		return nil, fmt.Errorf("ff: encoding is %d bytes, want %d", len(b), f.byteLen)
	}
	r := new(big.Int).SetBytes(b)
	if r.Cmp(f.p) >= 0 {
		return nil, errors.New("ff: encoded value is not reduced mod p")
	}
	return r, nil
}

// Equal reports whether two reduced elements are equal.
func (f *Field) Equal(a, b *big.Int) bool { return a.Cmp(b) == 0 }
