package curve

import (
	"math/big"
	"math/rand"
	"testing"
)

// rhsBig returns x³ + x mod p in math/big.
func rhsBig(c *Curve, x *big.Int) *big.Int {
	r := new(big.Int).Exp(x, big.NewInt(3), nil)
	return r.Mod(r.Add(r, x), c.F.P())
}

// pointFromXModSqrt is pointFromX as it was before the limb square root:
// x³+x in math/big, big.Int.ModSqrt (which fails on non-residues), and
// the same parity rule. Kept as the oracle.
func pointFromXModSqrt(c *Curve, x *big.Int, parity byte) (Point, bool) {
	rhs := rhsBig(c, x)
	if rhs.Sign() == 0 {
		return Point{}, false
	}
	y := new(big.Int).ModSqrt(rhs, c.F.P())
	if y == nil {
		return Point{}, false
	}
	if byte(y.Bit(0)) != parity {
		y.Sub(c.F.P(), y)
	}
	p, err := c.NewPoint(x, y)
	return p, err == nil
}

// TestPointFromXMatchesModSqrt: on x = 0, 1, 2, p−1 and seeded random x
// — 10⁴ per curve, 10³ at SS1024 (skipped under -short), a tenth of that
// under -short or -race — each with a seeded parity, the limb lift
// accepts exactly the x the ModSqrt path accepts and returns the same y.
// About half the random x are non-residues.
func TestPointFromXMatchesModSqrt(t *testing.T) {
	for _, row := range oracleCurves {
		t.Run(row.name, func(t *testing.T) {
			c := oracleCurve(t, row.p, row.q)
			n := 10000
			if c.F.ByteLen() > 64 {
				if testing.Short() {
					t.Skip("16-limb row skipped under -short")
				}
				n = 1000
			}
			if testing.Short() || raceEnabled {
				n /= 10
			}
			p := c.F.P()
			xs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(p, big1)}
			rng := rand.New(rand.NewSource(29))
			for len(xs) < n {
				xs = append(xs, new(big.Int).Rand(rng, p))
			}
			rejected := 0
			for _, x := range xs {
				parity := byte(rng.Intn(2))
				got, ok := c.pointFromX(x, parity)
				want, wantOK := pointFromXModSqrt(c, x, parity)
				if ok != wantOK || ok && !got.Equal(want) {
					t.Fatalf("x=%x parity %d: limb lift %v %v, ModSqrt path %v %v", x, parity, got, ok, want, wantOK)
				}
				if !ok {
					rejected++
				}
			}
			if rejected < n/4 || rejected > 3*n/4 {
				t.Fatalf("%d of %d x rejected; expected about half", rejected, n)
			}
		})
	}
}
