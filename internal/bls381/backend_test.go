package bls381

import (
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// TestPointEqualOnExtPoints pins curve.Point.Equal on this backend's
// points: they carry no X/Y, so backend-less callers (the archive's
// conflict check) see them only through ExtEqual.
func TestPointEqualOnExtPoints(t *testing.T) {
	b := New()
	g1, g2 := b.Generator(backend.G1), b.Generator(backend.G2)
	two := b.Add(backend.G2, g2, g2)
	if !two.Equal(b.ScalarMult(backend.G2, big.NewInt(2), g2)) {
		t.Fatal("g2+g2 and 2·g2 must be equal")
	}
	if g2.Equal(two) || two.Equal(g2) {
		t.Fatal("distinct G2 points compare equal")
	}
	if g1.Equal(g2) || g2.Equal(g1) {
		t.Fatal("points of different groups compare equal")
	}
	inf := b.Add(backend.G2, g2, b.Neg(backend.G2, g2))
	if !inf.Equal(b.Infinity(backend.G2)) || !inf.Equal(curve.Infinity()) || inf.Equal(g2) {
		t.Fatal("the identity equals every identity and nothing else")
	}
}
