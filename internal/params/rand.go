package params

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/ff"
)

// orRand substitutes crypto/rand.Reader for a nil reader.
func orRand(rng io.Reader) io.Reader {
	if rng == nil {
		return rand.Reader
	}
	return rng
}

// randPrime samples an odd prime with exactly bits bits.
func randPrime(rng io.Reader, bits int) (*big.Int, error) {
	p, err := rand.Prime(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("params: sampling prime: %w", err)
	}
	return p, nil
}

// randBits samples an integer with exactly bits bits (top bit set).
func randBits(rng io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(rng, buf); err != nil {
		return nil, fmt.Errorf("params: reading randomness: %w", err)
	}
	n := new(big.Int).SetBytes(buf)
	// Trim to the requested width, then force the top bit.
	n.SetBit(n, bits, 0)
	for n.BitLen() > bits {
		n.SetBit(n, n.BitLen()-1, 0)
	}
	n.SetBit(n, bits-1, 1)
	return n, nil
}

// Field exposes the base field of a Type-1 set: the benchmark module's
// ff.ss512_* probes time F_p alone. It panics on an asymmetric set,
// which has no such field.
func (s *Set) Field() *ff.Field {
	c, _ := s.B.(*backend.Symmetric).Type1()
	return c.F
}
