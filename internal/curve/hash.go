package curve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/rohash"
)

// HashToGroup implements the paper's H1: {0,1}* → G1 — a hash onto the
// order-q subgroup — by try-and-increment plus cofactor clearing:
//
//  1. derive an x-candidate from SHA-256 counter-mode expansion of
//     (dst, counter, msg);
//  2. if x³+x is a non-zero square, take y = √(x³+x) with the parity
//     selected by one more derived bit, giving a point on E(F_p);
//  3. multiply by the cofactor h to land in the subgroup; retry on the
//     (cofactor·point = ∞) edge case.
//
// The dst argument domain-separates the different oracles built from H1
// (time labels, identities, policy conditions, HIBE node labels).
func (c *Curve) HashToGroup(dst string, msg []byte) Point {
	for ctr := uint32(0); ; ctr++ {
		var p Point
		p, ctr = c.hashCandidate(dst, msg, ctr)
		if g := c.ScalarMult(c.H, p); !g.inf {
			return g
		}
	}
}

// hashCandidate runs steps 1–2 of HashToGroup from counter ctr on: the
// first candidate that lifts to a point of E(F_p) — anywhere on the
// curve, cofactor not cleared — and the counter that produced it.
func (c *Curve) hashCandidate(dst string, msg []byte, ctr uint32) (Point, uint32) {
	for ; ; ctr++ {
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		data := rohash.Concat(cb[:], msg)
		// One extra byte beyond the x-candidate supplies the y-parity bit.
		n := (c.F.BitLen()+7+128)/8 + 1
		raw := rohash.Expand("TRE-H1:"+dst, data, n)
		parity := raw[len(raw)-1] & 1
		x := new(big.Int).Mod(new(big.Int).SetBytes(raw[:len(raw)-1]), c.F.P())
		if p, ok := c.pointFromX(x, parity); ok {
			return p, ctr
		}
	}
}

// HashSum returns Σ kᵢ·HashToGroup(dst, msgsᵢ) for one cofactor
// multiplication instead of one per message: HashToGroup is h·M for the
// candidate M, so the sum is h·Σ kᵢ·Mᵢ — the candidates go through the
// multi-scalar multiplication uncleared, under scalars used as given.
// The identity is literal except where HashToGroup retries because
// h·M = ∞ (probability 1/q per message): the sum cannot see that, a
// check built on it fails closed, and its caller hashes per message.
func (c *Curve) HashSum(dst string, scalars []*big.Int, msgs [][]byte) Point {
	if len(scalars) != len(msgs) {
		panic("curve: HashSum needs one scalar per message")
	}
	return c.ScalarMult(c.H, c.msm(scalars, func(i int) Point {
		p, _ := c.hashCandidate(dst, msgs[i], 0)
		return p
	}))
}

// pointFromX lifts an x-candidate to a curve point with the requested
// y parity, reporting false when x³+x is zero or a non-square.
func (c *Curve) pointFromX(x *big.Int, parity byte) (Point, bool) {
	rhs := c.rhs(x)
	if rhs.Sign() == 0 {
		// (x, 0) is a 2-torsion point; useless for the odd-order subgroup.
		return Point{}, false
	}
	y, err := c.F.Sqrt(rhs)
	if err != nil {
		return Point{}, false
	}
	if byte(y.Bit(0)) != parity {
		y = c.F.Neg(y)
	}
	return Point{X: x, Y: y}, true
}

// RandomPoint samples a uniformly random point of E(F_p) (any order) by
// rejection over x. It is used by parameter generation and tests.
func (c *Curve) RandomPoint(rng io.Reader) (Point, error) {
	for {
		x, err := c.F.Rand(rng)
		if err != nil {
			return Point{}, err
		}
		rhs := c.rhs(x)
		if rhs.Sign() == 0 {
			continue
		}
		if c.F.Legendre(rhs) != 1 {
			continue
		}
		y, err := c.F.Sqrt(rhs)
		if err != nil {
			return Point{}, err
		}
		// Randomise the sign of y so both roots are reachable.
		var b [1]byte
		if _, err := io.ReadFull(orRandReader(rng), b[:]); err != nil {
			return Point{}, fmt.Errorf("curve: sampling y sign: %w", err)
		}
		if b[0]&1 == 1 {
			y = c.F.Neg(y)
		}
		return Point{X: x, Y: y}, nil
	}
}

// RandomSubgroupPoint samples a random point of the order-q subgroup by
// cofactor-clearing a random curve point.
func (c *Curve) RandomSubgroupPoint(rng io.Reader) (Point, error) {
	for i := 0; i < 256; i++ {
		p, err := c.RandomPoint(rng)
		if err != nil {
			return Point{}, err
		}
		g := c.ScalarMult(c.H, p)
		if !g.inf {
			return g, nil
		}
	}
	return Point{}, errors.New("curve: could not find subgroup point (bad parameters?)")
}
