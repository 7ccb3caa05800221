package bls381

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// TestBackendHandsOutMembersOnly pins the invariant Backend.InSubgroup
// answers from without a test: every point a Backend method returns
// passes the raw ψ (G2) or φ (G1) subgroup test, and ParsePoint, the
// one door for outside points, still runs it — a marshalled uncleared
// twist point and a marshalled point of E(Fp) outside G1 are refused.
func TestBackendHandsOutMembersOnly(t *testing.T) {
	b := New()
	rng := mrand.New(mrand.NewSource(32))
	k1, k2 := new(big.Int).Rand(rng, ctx.r), new(big.Int).Rand(rng, ctx.r)
	g1, g2 := b.Generator(backend.G1), b.Generator(backend.G2)
	p1, p2 := b.ScalarMult(backend.G1, k1, g1), b.ScalarMult(backend.G2, k1, g2)
	h := b.HashToG2("members", []byte("label"))
	parse := func(g backend.Group, p curve.Point) curve.Point {
		q, err := b.ParsePoint(g, b.AppendPoint(nil, g, p))
		if err != nil {
			t.Fatalf("ParsePoint(%v): %v", g, err)
		}
		return q
	}
	for name, p := range map[string]curve.Point{
		"Generator":  g1,
		"Infinity":   b.Infinity(backend.G1),
		"Add":        b.Add(backend.G1, g1, p1),
		"Neg":        b.Neg(backend.G1, p1),
		"ScalarMult": b.ScalarMult(backend.G1, k2, p1),
		"MSM":        b.MSM(backend.G1, []*big.Int{k1, k2}, []curve.Point{g1, p1}),
		"ParsePoint": parse(backend.G1, p1),
	} {
		if pa := unwrapG1(p); !pa.inSubgroup() || !b.InSubgroup(backend.G1, p) {
			t.Errorf("G1 %s: the result is not a subgroup member", name)
		}
	}
	for name, p := range map[string]curve.Point{
		"Generator":  g2,
		"Infinity":   b.Infinity(backend.G2),
		"Add":        b.Add(backend.G2, g2, p2),
		"Neg":        b.Neg(backend.G2, p2),
		"ScalarMult": b.ScalarMult(backend.G2, k2, h),
		"MSM":        b.MSM(backend.G2, []*big.Int{k1, k2}, []curve.Point{h, p2}),
		"HashToG2":   h,
		"HashSumG2":  b.HashSumG2("members", []*big.Int{k1, k2}, [][]byte{[]byte("a"), []byte("b")}),
		"ParsePoint": parse(backend.G2, p2),
	} {
		if pa := unwrapG2(p); !pa.inSubgroup() || !b.InSubgroup(backend.G2, p) {
			t.Errorf("G2 %s: the result is not a subgroup member", name)
		}
	}

	var u fe2
	u.fromUint64(7, 11)
	twist := svdwMap(&u)
	if !twist.isOnCurve() || twist.inSubgroup() {
		t.Fatal("the uncleared map output must be a twist point outside G2")
	}
	if _, err := b.ParsePoint(backend.G2, marshalG2(nil, &twist)); err == nil {
		t.Fatal("ParsePoint accepted an uncleared twist point")
	}
	for {
		var x, rhs, y, four fe
		x.fromBig(new(big.Int).Rand(rng, ctx.p))
		four.fromBig(big.NewInt(4))
		rhs.sqr(&x)
		rhs.mul(&rhs, &x)
		rhs.add(&rhs, &four)
		if !y.sqrt(&rhs) {
			continue
		}
		off := g1Affine{x: x, y: y}
		if off.inSubgroup() {
			continue // probability 1/h1
		}
		if _, err := b.ParsePoint(backend.G1, marshalG1(nil, &off)); err == nil {
			t.Fatal("ParsePoint accepted a point of E(Fp) outside G1")
		}
		return
	}
}

// TestPointEqualOnLimbPoints pins curve.Point.Equal on this backend's
// points, which backend-less callers (the archive's conflict check)
// compare by their limbs: the two groups' vectors differ in width, and
// every identity equals every other.
func TestPointEqualOnLimbPoints(t *testing.T) {
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
