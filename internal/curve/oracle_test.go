package curve_test

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"timedrelease/internal/curve"
	"timedrelease/internal/ref"
)

var big1 = big.NewInt(1)

func TestScalarMultProperties(t *testing.T) {
	c := curve.SmallCurve(t)
	g := curve.Gen(t, c)
	cfg := &quick.Config{MaxCount: 40}

	// (k1 + k2)·g == k1·g + k2·g
	additive := func(k1, k2 uint32) bool {
		a, b := big.NewInt(int64(k1)), big.NewInt(int64(k2))
		lhs := c.ScalarMult(new(big.Int).Add(a, b), g)
		rhs := c.Add(c.ScalarMult(a, g), c.ScalarMult(b, g))
		return c.Equal(lhs, rhs)
	}
	if err := quick.Check(additive, cfg); err != nil {
		t.Error(err)
	}

	// (k1·k2)·g == k1·(k2·g)
	multiplicative := func(k1, k2 uint32) bool {
		a, b := big.NewInt(int64(k1)), big.NewInt(int64(k2))
		lhs := c.ScalarMult(new(big.Int).Mul(a, b), g)
		rhs := c.ScalarMult(a, c.ScalarMult(b, g))
		return c.Equal(lhs, rhs)
	}
	if err := quick.Check(multiplicative, cfg); err != nil {
		t.Error(err)
	}

	// The Jacobian walk and the affine oracle agree.
	agree := func(k uint32) bool {
		s := big.NewInt(int64(k))
		return c.Equal(c.ScalarMult(s, g), ref.ScalarMultAffine(c, s, g))
	}
	if err := quick.Check(agree, cfg); err != nil {
		t.Error(err)
	}
}

// TestScalarMultBackendsAgree pins the production walk (Jacobian, on
// limbs) against the affine math/big oracle at every table size.
func TestScalarMultBackendsAgree(t *testing.T) {
	curve.ForEachOracleCurve(t, func(t *testing.T, c *curve.Curve, g curve.Point, scalars []*big.Int) {
		for _, k := range scalars {
			if got, want := c.ScalarMult(k, g), ref.ScalarMultAffine(c, k, g); !c.Equal(got, want) {
				t.Fatalf("ScalarMult != oracle at k=%v: got %v want %v", k, got, want)
			}
		}
	})
}

// TestScalarMultMontNonGenerator exercises the production walk on
// points outside the subgroup (full-order and 2-torsion structure shows
// up via the cofactor), where intermediate infinities and Y = 0 cases
// are reachable.
func TestScalarMultMontNonGenerator(t *testing.T) {
	c := curve.SmallCurve(t)
	p, err := c.RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	order := new(big.Int).Add(c.F.P(), big1) // #E = p+1
	for _, k := range []*big.Int{
		big.NewInt(1), big.NewInt(2), c.H, order,
		new(big.Int).Add(order, big.NewInt(5)),
	} {
		if !c.Equal(c.ScalarMult(k, p), ref.ScalarMultAffine(c, k, p)) {
			t.Fatalf("ScalarMult != oracle on curve point at k=%v", k)
		}
	}
}

// TestScalarMultWindowMatchesOracle walks the width-4 NAF walk through
// its edges against the affine oracle: scalars around the window
// boundaries, around the group orders, and wider than the field (past
// ScalarMult's stack digit buffer at 2 049 bits); bases inside and
// outside the subgroup, one of them of cofactor order. On the 2-torsion
// point every odd multiple is P and 2P = ∞, and on small multiples acc
// collides with ±P, 3P, 5P or 7P, so the table build and the walk reach
// add's doubling and infinity branches.
func TestScalarMultWindowMatchesOracle(t *testing.T) {
	curve.ForEachOracleCurve(t, func(t *testing.T, c *curve.Curve, g curve.Point, _ []*big.Int) {
		order := new(big.Int).Mul(c.H, c.Q) // #E = p+1
		wide, err := rand.Int(rand.Reader, new(big.Int).Lsh(big1, 600))
		if err != nil {
			t.Fatal(err)
		}
		wider := new(big.Int).Lsh(order, 2100)
		scalars := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(7), big.NewInt(8), big.NewInt(9),
			big.NewInt(15), big.NewInt(16), big.NewInt(17),
			new(big.Int).Sub(c.Q, big1), c.Q, new(big.Int).Add(c.Q, big1), c.H, order,
			wide.SetBit(wide, 599, 1), wider.Add(wider, c.Q),
		}
		for _, i := range []uint{3, 4, 5, 8, 63, 64, 65, uint(c.Q.BitLen()), uint(order.BitLen())} {
			pow := new(big.Int).Lsh(big1, i)
			scalars = append(scalars, pow, new(big.Int).Sub(pow, big1))
		}
		outside, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		two, err := c.NewPoint(new(big.Int), new(big.Int)) // (0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]curve.Point{"generator": g, "curve point": outside, "cofactor order": c.ScalarMult(c.Q, outside),
			"2-torsion": two, "infinity": curve.Infinity()} {
			for _, k := range scalars {
				if got, want := c.ScalarMult(k, p), ref.ScalarMultAffine(c, k, p); !c.Equal(got, want) {
					t.Fatalf("%s: ScalarMult != oracle at k=%v: got %v want %v", name, k, got, want)
				}
			}
		}
	})
}
