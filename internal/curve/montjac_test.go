package curve

import (
	"crypto/rand"
	"math/big"
	"testing"

	"timedrelease/internal/ff"
)

// oracleCurves is the table the differential tests run over: the small
// test curve plus the preset sizes (primes duplicated from
// params.Preset, which this package cannot import). The 16-limb SS1024
// row is skipped under -short.
var oracleCurves = []struct {
	name, p, q string
	random     int // random scalars on top of the edge cases
}{
	{"test96", "8f98a3660038a5b78edf9f53", "922af50d1a7f", 40},
	{"Test160", "cab69233645ff2ec9acee7e93cf76c09cab9c52f", "ccf7a522ae5901e73051", 10},
	{"SS512", "ad1b4018db0dcf94ca80575c821b9aefd402ad39db7a7d85fb0f8e71989659c2af8599a5b178cf01ddb933717119e7db4055e2b5e452590b660633ca3f0897b7", "eb390909eda970c020a00be910961312ae13722b", 4},
	{"SS1024", "ad9a6e357557eb15668567fb42048d4265160edec9ae4d134bd4ab8d3cb48e659bf1198c17a1ac94870d40a0b013c456c52a86d827ba47dcadcdb78b45baa254d8bdd82e9c5c47088070a72b0b31238218a74808edb04c9da0be604bdc70995cc1e0c0b3664622935cc3eb7bf830b69e1145326b4e562226b65da09c6e4d447b", "d4d5f7f4ac6206c04a504269bfeb5b2f179f428d4530c35947146d33", 2},
}

// oracleCurve builds the supersingular curve of one oracleCurves row
// from its hex p and q (cofactor (p+1)/q).
func oracleCurve(tb testing.TB, pHex, qHex string) *Curve {
	tb.Helper()
	p, q := mustInt(pHex, 16), mustInt(qHex, 16)
	f, err := ff.NewField(p)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(f, q, new(big.Int).Quo(new(big.Int).Add(p, big1), q))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// forEachOracleCurve runs fn per table row with a random subgroup
// generator and the scalars to try: the structural edges 0, 1, 2, 3,
// the table edges 127 and 128 (largest odd multiple ScalarMultBase
// stores), q−1, q, q+1, the cofactor, and the row's random scalars.
func forEachOracleCurve(t *testing.T, fn func(t *testing.T, c *Curve, g Point, scalars []*big.Int)) {
	for _, row := range oracleCurves {
		row := row
		t.Run(row.name, func(t *testing.T) {
			c := oracleCurve(t, row.p, row.q)
			if testing.Short() && c.F.ByteLen() > 64 {
				t.Skip("16-limb row skipped under -short")
			}
			scalars := []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3),
				big.NewInt(127), big.NewInt(128),
				new(big.Int).Sub(c.Q, big1), new(big.Int).Set(c.Q),
				new(big.Int).Add(c.Q, big1), new(big.Int).Set(c.H),
			}
			for i := 0; i < row.random; i++ {
				k, err := c.RandScalar(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				scalars = append(scalars, k)
			}
			fn(t, c, testGen(t, c), scalars)
		})
	}
}

// TestScalarMultBackendsAgree pins the production ladder (Jacobian, on
// limbs) against the affine math/big oracle at every table size.
func TestScalarMultBackendsAgree(t *testing.T) {
	forEachOracleCurve(t, func(t *testing.T, c *Curve, g Point, scalars []*big.Int) {
		for _, k := range scalars {
			if got, want := c.ScalarMult(k, g), c.ScalarMultAffine(k, g); !c.Equal(got, want) {
				t.Fatalf("ScalarMult != oracle at k=%v: got %v want %v", k, got, want)
			}
		}
	})
}

// TestScalarMultMontNonGenerator exercises the production ladder on
// points outside the subgroup (full-order and 2-torsion structure shows
// up via the cofactor), where intermediate infinities and Y = 0 cases
// are reachable.
func TestScalarMultMontNonGenerator(t *testing.T) {
	c := testCurve(t)
	p, err := c.RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	order := new(big.Int).Add(c.F.P(), big.NewInt(1)) // #E = p+1
	for _, k := range []*big.Int{
		big.NewInt(1), big.NewInt(2), c.H, order,
		new(big.Int).Add(order, big.NewInt(5)),
	} {
		if !c.Equal(c.ScalarMult(k, p), c.ScalarMultAffine(k, p)) {
			t.Fatalf("ScalarMult != oracle on curve point at k=%v", k)
		}
	}
}

// TestScalarMultBaseMatchesScalarMult holds the fixed-base table path —
// PrecomputeBase's Jacobian table and batch normalisation, then the
// width-8 wNAF ladder — to the same oracle.
func TestScalarMultBaseMatchesScalarMult(t *testing.T) {
	forEachOracleCurve(t, func(t *testing.T, c *Curve, g Point, scalars []*big.Int) {
		tab := c.PrecomputeBase(g)
		for _, k := range scalars {
			if got, want := c.ScalarMultBase(tab, k), c.ScalarMultAffine(k, g); !c.Equal(got, want) {
				t.Fatalf("ScalarMultBase != oracle at k=%v: got %v want %v", k, got, want)
			}
		}
	})
}

// TestScalarMultBaseIdentityTable covers the identity base point and
// the negative-scalar panic.
func TestScalarMultBaseIdentityTable(t *testing.T) {
	c := testCurve(t)
	if !c.ScalarMultBase(c.PrecomputeBase(Infinity()), big.NewInt(5)).IsInfinity() {
		t.Fatal("k·∞ must be ∞")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative scalar must panic")
		}
	}()
	g := testGen(t, c)
	c.ScalarMultBase(c.PrecomputeBase(g), big.NewInt(-1))
}

// TestScalarMultBaseLowOrderBase exercises PrecomputeBase and the table
// ladder on bases outside the subgroup: the 2-torsion point (0, 0),
// whose very first doubling is vertical so every table entry collapses
// to P, and a cofactor-order point.
func TestScalarMultBaseLowOrderBase(t *testing.T) {
	c := testCurve(t)
	two, err := c.NewPoint(new(big.Int), new(big.Int)) // (0,0): y²=x³+x holds
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []Point{two, c.ScalarMult(c.Q, p)} {
		tab := c.PrecomputeBase(base)
		for _, k := range []int64{0, 1, 2, 3, 63, 64, 127, 255, 1000} {
			kk := big.NewInt(k)
			if got, want := c.ScalarMultBase(tab, kk), c.ScalarMultAffine(kk, base); !c.Equal(got, want) {
				t.Fatalf("low-order base mismatch at k=%d: got %v want %v", k, got, want)
			}
		}
	}
}

// TestScalarMultWindowMatchesOracle walks the 4-bit fixed-window ladder
// through its edges against the affine oracle: scalars around the
// nibble boundaries (leading nibble 1 and 15, all-zero and all-one
// nibbles below it), around the group orders, and wider than the field;
// bases inside and outside the subgroup. On the 2-torsion point every
// table entry is P or ∞, and on small multiples acc collides with
// ±tbl[w], so the table build and the walk reach add's doubling and
// infinity branches.
func TestScalarMultWindowMatchesOracle(t *testing.T) {
	forEachOracleCurve(t, func(t *testing.T, c *Curve, g Point, _ []*big.Int) {
		order := new(big.Int).Mul(c.H, c.Q) // #E = p+1
		wide, err := rand.Int(rand.Reader, new(big.Int).Lsh(big1, 600))
		if err != nil {
			t.Fatal(err)
		}
		scalars := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), big.NewInt(17),
			new(big.Int).Sub(c.Q, big1), c.Q, new(big.Int).Add(c.Q, big1), c.H, order,
			wide.SetBit(wide, 599, 1),
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
		for name, p := range map[string]Point{"generator": g, "curve point": outside, "2-torsion": two, "infinity": Infinity()} {
			for _, k := range scalars {
				if got, want := c.ScalarMult(k, p), c.ScalarMultAffine(k, p); !c.Equal(got, want) {
					t.Fatalf("%s: ScalarMult != oracle at k=%v: got %v want %v", name, k, got, want)
				}
			}
		}
	})
}
