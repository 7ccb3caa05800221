package curve

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/ff"
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
		if g := c.ScalarMult(c.H, p); g.finite {
			return g
		}
	}
}

// hashCandidate runs steps 1–2 of HashToGroup from counter ctr on: the
// first candidate that lifts to a point of E(F_p) — anywhere on the
// curve, cofactor not cleared — and the counter that produced it. A try
// reduces the expanded bytes on limbs, and the Legendre symbol of x³+x
// turns a non-square away before any exponentiation.
func (c *Curve) hashCandidate(dst string, msg []byte, ctr uint32) (Point, uint32) {
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	x, rhs := a.Elem(), a.Elem()
	tag := "TRE-H1:" + dst
	data := rohash.Concat(make([]byte, 4), msg) // the counter is bytes 4–7
	// One extra byte beyond the x-candidate supplies the y-parity bit.
	n := (c.F.BitLen()+7+128)/8 + 1
	for ; ; ctr++ {
		binary.BigEndian.PutUint32(data[4:8], ctr)
		raw := rohash.Expand(tag, data, n)
		m.SetWideBytes(x, raw[:n-1])
		c.rhs(rhs, x)
		if m.Legendre(rhs) == 1 {
			p, _ := c.lift(x, rhs, raw[n-1]&1, a)
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

// pointFromX lifts a reduced x to a curve point with the requested y
// parity, reporting false when x³+x is zero (a 2-torsion point, useless
// for the odd-order subgroup) or a non-square.
func (c *Curve) pointFromX(x *big.Int, parity byte) (Point, bool) {
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	xm, rhs := a.Elem(), a.Elem()
	m.ToMont(xm, x)
	c.rhs(rhs, xm)
	return c.lift(xm, rhs, parity, a)
}

// lift is pointFromX on the Montgomery forms of x and rhs = x³+x. Since
// p ≡ 3 (mod 4), y = rhs^((p+1)/4) is a root exactly when y² = rhs: one
// exponentiation and a squaring decide and compute it. Only an accepted
// point allocates; temporaries come from a.
func (c *Curve) lift(x, rhs ff.MontElem, parity byte, a *ff.Arena) (Point, bool) {
	m := c.F.Mont()
	if m.IsZero(rhs) {
		return Point{}, false
	}
	y, y2 := a.Elem(), a.Elem()
	m.Exp(y, rhs, c.sqrtExp)
	if m.Sqr(y2, y); !m.Equal(y2, rhs) {
		return Point{}, false
	}
	if c.parity(y) != parity {
		m.Neg(y, y)
	}
	p, px, py := newAffine(m.Limbs())
	m.Set(px, x)
	m.Set(py, y)
	return p, true
}

// RandomPoint samples a uniformly random point of E(F_p) (any order) by
// rejection over x, with a random y parity so both roots are reachable.
// A nil rng reads crypto/rand.
func (c *Curve) RandomPoint(rng io.Reader) (Point, error) {
	if rng == nil {
		rng = rand.Reader
	}
	for {
		x, err := c.F.Rand(rng)
		if err != nil {
			return Point{}, err
		}
		var b [1]byte
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return Point{}, fmt.Errorf("curve: sampling y sign: %w", err)
		}
		if p, ok := c.pointFromX(x, b[0]&1); ok {
			return p, nil
		}
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
		if g.finite {
			return g, nil
		}
	}
	return Point{}, errors.New("curve: could not find subgroup point (bad parameters?)")
}
