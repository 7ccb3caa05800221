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
// 127 and 128, q−1, q, q+1, the cofactor, and the row's random scalars.
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
