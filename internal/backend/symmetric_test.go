package backend_test

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/ref"
)

// TestSymmetricMatchesAffineOracle holds the Type-1 group law on limbs —
// Symmetric's Add, Neg, Equal and IsOnCurve, and its point encoding — to
// internal/ref's affine math/big law at 3, 8, 16 and 24 limbs. The
// points are ∞, the generator, two random subgroup points, a curve point
// outside the subgroup and the 2-torsion point (0, 0), each with its
// negation, and every ordered pair of them is added, so P + (−P), P + P
// and ∞ + P are among the sums. An encoding must be the oracle's bytes,
// decode back to the point and pass ParsePoint exactly when [q]P = ∞;
// x = 0, the 2-torsion point's x, must not decode. SS1024 and SS1536
// are skipped under -short.
func TestSymmetricMatchesAffineOracle(t *testing.T) {
	for _, name := range []string{"Test160", "SS512", "SS1024", "SS1536"} {
		t.Run(name, func(t *testing.T) {
			set := params.MustPreset(name)
			b := set.B.(*backend.Symmetric)
			if testing.Short() && b.PointLen(backend.G1) > 65 {
				t.Skip("16- and 24-limb rows skipped under -short")
			}
			c, _ := b.Type1()
			rng := rand.New(rand.NewSource(41))
			outside, err := c.RandomPoint(rng)
			if err != nil {
				t.Fatal(err)
			}
			two, err := c.NewPoint(new(big.Int), new(big.Int))
			if err != nil {
				t.Fatal(err)
			}
			pts := []curve.Point{curve.Infinity(), set.G, outside, two}
			for i := 0; i < 2; i++ {
				pts = append(pts, b.ScalarMult(backend.G1, new(big.Int).Rand(rng, c.Q), set.G))
			}
			for _, p := range pts[1:] {
				pts = append(pts, b.Neg(backend.G1, p))
			}
			same := func(p curve.Point, want ref.Affine) bool {
				got := ref.AffineOf(c, p)
				return got.X == nil && want.X == nil ||
					got.X != nil && want.X != nil && got.X.Cmp(want.X) == 0 && got.Y.Cmp(want.Y) == 0
			}
			for i, p := range pts {
				pa := ref.AffineOf(c, p)
				if !b.IsOnCurve(backend.G1, p) || !ref.OnCurve(c, pa) {
					t.Fatalf("point %d %v: IsOnCurve %v, oracle %v", i, pa, b.IsOnCurve(backend.G1, p), ref.OnCurve(c, pa))
				}
				if !same(b.Neg(backend.G1, p), ref.Neg(c, pa)) {
					t.Fatalf("point %d %v: Neg differs from the oracle", i, pa)
				}
				for j, q := range pts {
					qa := ref.AffineOf(c, q)
					if !same(b.Add(backend.G1, p, q), ref.Add(c, pa, qa)) {
						t.Fatalf("points %d + %d: Add differs from the oracle", i, j)
					}
					if b.Equal(backend.G1, p, q) != same(q, pa) {
						t.Fatalf("points %d, %d: Equal says %v", i, j, b.Equal(backend.G1, p, q))
					}
				}

				want := make([]byte, b.PointLen(backend.G1))
				if pa.X != nil {
					want[0] = 2 | byte(pa.Y.Bit(0))
					pa.X.FillBytes(want[1:])
				}
				enc := b.AppendPoint(nil, backend.G1, p)
				if !bytes.Equal(enc, want) {
					t.Fatalf("point %d: encoding %x, oracle %x", i, enc, want)
				}
				back, err := c.Unmarshal(enc)
				if pa.X != nil && pa.X.Sign() == 0 {
					if err == nil {
						t.Fatalf("point %d: x = 0 decoded", i)
					}
					continue
				}
				if err != nil || !b.Equal(backend.G1, back, p) {
					t.Fatalf("point %d: decoded %v, %v", i, back, err)
				}
				member := ref.ScalarMultAffine(c, c.Q, p).IsInfinity()
				if _, err := b.ParsePoint(backend.G1, enc); (err == nil) != member {
					t.Fatalf("point %d: ParsePoint error %v, [q]P = ∞ is %v", i, err, member)
				}
			}

			x, y := c.Affine(set.G)
			y.Add(y, big.NewInt(1))
			if _, err := c.NewPoint(x, y); err == nil || ref.OnCurve(c, ref.Affine{X: x, Y: y}) {
				t.Fatalf("(x, y+1) off the curve: NewPoint error %v", err)
			}
		})
	}
}
