// Package ff implements arithmetic in the prime field F_p and its
// quadratic extension F_{p²} = F_p[i]/(i²+1), the two fields underlying
// the supersingular pairing group of the Type-1 backend.
//
// Field holds the modulus and the integer boundary: encoding, reduction
// and sampling on *big.Int. All arithmetic runs on the fixed-limb
// Montgomery layer every Field carries: Mont for F_p and Fp2Mont for
// F_{p²}, the only F_{p²} in the tree. TestMont* and the Fuzz* targets
// pin it operation by operation against math/big, and the F_{p²} tower
// against internal/ref's oracle. Mont reduces by selects at every width
// (the generated kernels in mont_kernel.go at 3 and 8 limbs, the loop
// forms elsewhere) and inverts in fixed time (bingcd.go); every
// exponentiation, the Legendre symbol and the math/big boundary branch
// (see Mont and the repository README for the threat-model discussion).
package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	big1 = big.NewInt(1)
	big2 = big.NewInt(2)
	big3 = big.NewInt(3)
)

// Field is the context of the prime field F_p: the modulus, its
// integer encoding and its Montgomery layer.
type Field struct {
	p       *big.Int // modulus, an odd prime
	byteLen int      // fixed-width encoding length

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

// IsReduced reports whether x is a canonical representative, 0 ≤ x < p
// (a range check, not quadratic residuosity).
func (f *Field) IsReduced(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(f.p) < 0
}

// Reduce returns x mod p as a new integer.
func (f *Field) Reduce(x *big.Int) *big.Int {
	return new(big.Int).Mod(x, f.p)
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
