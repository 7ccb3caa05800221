package curve

import (
	"math/big"
	"testing"
)

// Shims for the external differential tests in oracle_test.go, which
// import internal/ref's ScalarMultAffine (it imports this package, so
// they cannot live in it).

func SmallCurve(t *testing.T) *Curve { return testCurve(t) }

func Gen(t testing.TB, c *Curve) Point { return testGen(t, c) }

func ForEachOracleCurve(t *testing.T, fn func(t *testing.T, c *Curve, g Point, scalars []*big.Int)) {
	forEachOracleCurve(t, fn)
}
