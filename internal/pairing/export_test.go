package pairing

import (
	"testing"

	"timedrelease/internal/curve"
)

// Shims for the differential tests in oracle_test.go, which run in the
// external pairing_test package against internal/ref's affine pairing
// and reach this package's test helpers only through here.

func ForEachPreset(t *testing.T, fn func(t *testing.T, pr *Pairing)) { forEachPreset(t, fn) }

func RandomSubgroupPoints(t *testing.T, pr *Pairing, n int, tag string) []curve.Point {
	return randomSubgroupPoints(t, pr, n, tag)
}

func SmallPairing(t *testing.T) *Pairing { return testPairing(t) }

func Gen(t *testing.T, pr *Pairing, seed byte) curve.Point { return gen(t, pr, seed) }

// MillerPrepared returns the prepared loop's raw Miller value of (P, q),
// before the final exponentiation.
func (pr *Pairing) MillerPrepared(pp *PreparedPoint, q curve.Point) GT {
	a := pr.m.GetArena()
	defer a.Release()
	return pr.own(pr.millerPreparedMontIn(pp, q, a))
}

// ClosesVertical reports whether pp's schedule ends in a vertical
// addition step.
func (pp *PreparedPoint) ClosesVertical() bool { return pp.steps[len(pp.steps)-1].add.vertical }
