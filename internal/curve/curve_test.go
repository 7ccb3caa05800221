package curve

import (
	"math/big"
	"testing"
	"testing/quick"

	"timedrelease/internal/ff"
)

// Small but realistic test parameters: p = h·q − 1 with p ≡ 3 (mod 4).
// Generated once with the params generator at 96/48 bits and inlined so
// this package has no dependency on internal/params (which depends on
// us).
var (
	testP = mustInt("8f98a3660038a5b78edf9f53", 16)
	testQ = mustInt("922af50d1a7f", 16)
)

func mustInt(s string, base int) *big.Int {
	n, ok := new(big.Int).SetString(s, base)
	if !ok {
		panic("bad literal: " + s)
	}
	return n
}

func testCurve(t *testing.T) *Curve {
	t.Helper()
	f, err := ff.NewField(testP)
	if err != nil {
		t.Fatalf("NewField: %v", err)
	}
	pp1 := new(big.Int).Add(testP, big.NewInt(1))
	h := new(big.Int).Quo(pp1, testQ)
	c, err := New(f, testQ, h)
	if err != nil {
		t.Fatalf("curve.New: %v", err)
	}
	return c
}

func testGen(t testing.TB, c *Curve) Point {
	t.Helper()
	g, err := c.RandomSubgroupPoint(nil)
	if err != nil {
		t.Fatalf("RandomSubgroupPoint: %v", err)
	}
	return g
}

func TestNewRejectsBadStructure(t *testing.T) {
	f, err := ff.NewField(testP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f, testQ, big.NewInt(12)); err == nil {
		t.Fatal("wrong cofactor must be rejected")
	}
	if _, err := New(nil, testQ, testQ); err == nil {
		t.Fatal("nil field must be rejected")
	}
	// p ≡ 1 (mod 4) must be rejected.
	f5, err := ff.NewField(big.NewInt(13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f5, big.NewInt(7), big.NewInt(2)); err == nil {
		t.Fatal("p ≡ 1 (mod 4) must be rejected")
	}
}

func TestGroupLaws(t *testing.T) {
	c := testCurve(t)
	p1 := testGen(t, c)
	p2 := testGen(t, c)
	p3 := testGen(t, c)

	// Identity.
	if !c.Equal(c.Add(p1, Infinity()), p1) || !c.Equal(c.Add(Infinity(), p1), p1) {
		t.Fatal("infinity is not the identity")
	}
	// Inverse.
	if !c.Add(p1, c.Neg(p1)).IsInfinity() {
		t.Fatal("p + (-p) != ∞")
	}
	// Commutativity.
	if !c.Equal(c.Add(p1, p2), c.Add(p2, p1)) {
		t.Fatal("addition is not commutative")
	}
	// Associativity.
	l := c.Add(c.Add(p1, p2), p3)
	r := c.Add(p1, c.Add(p2, p3))
	if !c.Equal(l, r) {
		t.Fatal("addition is not associative")
	}
	// Doubling is p+p.
	if !c.Equal(c.Double(p1), c.Add(p1, p1.Clone())) {
		t.Fatal("Double(p) != p+p (via distinct-x path)")
	}
	// Results stay on the curve.
	for _, pt := range []Point{l, c.Double(p1), c.Neg(p2)} {
		if !c.IsOnCurve(pt) {
			t.Fatal("group operation left the curve")
		}
	}
}

func TestScalarMultProperties(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)
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

	// Jacobian and affine ladders agree.
	agree := func(k uint32) bool {
		s := big.NewInt(int64(k))
		return c.Equal(c.ScalarMult(s, g), c.ScalarMultAffine(s, g))
	}
	if err := quick.Check(agree, cfg); err != nil {
		t.Error(err)
	}
}

func TestScalarMultEdgeCases(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)
	if !c.ScalarMult(new(big.Int), g).IsInfinity() {
		t.Fatal("0·g != ∞")
	}
	if !c.Equal(c.ScalarMult(big.NewInt(1), g), g) {
		t.Fatal("1·g != g")
	}
	if !c.ScalarMult(big.NewInt(5), Infinity()).IsInfinity() {
		t.Fatal("k·∞ != ∞")
	}
	// Subgroup order annihilates.
	if !c.ScalarMult(c.Q, g).IsInfinity() {
		t.Fatal("q·g != ∞")
	}
	// (q-1)·g == -g
	qm1 := new(big.Int).Sub(c.Q, big.NewInt(1))
	if !c.Equal(c.ScalarMult(qm1, g), c.Neg(g)) {
		t.Fatal("(q-1)·g != -g")
	}
	// Full group order annihilates any point.
	p, err := c.RandomPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Add(c.F.P(), big.NewInt(1))
	if !c.ScalarMult(n, p).IsInfinity() {
		t.Fatal("(p+1)·P != ∞ — curve is not supersingular?")
	}
}

func TestNegativeScalarPanics(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)
	defer func() {
		if recover() == nil {
			t.Fatal("negative scalar must panic")
		}
	}()
	c.ScalarMult(big.NewInt(-1), g)
}

func TestInSubgroup(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)
	if !c.InSubgroup(g) || !c.InSubgroup(Infinity()) {
		t.Fatal("subgroup membership false negative")
	}
	// A random curve point is in the subgroup only with probability 1/h;
	// find one outside.
	found := false
	for i := 0; i < 64; i++ {
		p, err := c.RandomPoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !c.InSubgroup(p) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("could not find a point outside the subgroup (h is large, so this is a bug)")
	}
}

func TestNewPointValidates(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)
	if _, err := c.NewPoint(g.X, g.Y); err != nil {
		t.Fatalf("NewPoint of on-curve point: %v", err)
	}
	bad := new(big.Int).Add(g.Y, big.NewInt(1))
	if _, err := c.NewPoint(g.X, bad); err == nil {
		t.Fatal("off-curve point must be rejected")
	}
}

func TestHashToGroupProperties(t *testing.T) {
	c := testCurve(t)
	h1 := c.HashToGroup("dst", []byte("message"))
	h2 := c.HashToGroup("dst", []byte("message"))
	if !c.Equal(h1, h2) {
		t.Fatal("hash must be deterministic")
	}
	if !c.InSubgroup(h1) || h1.IsInfinity() {
		t.Fatal("hash output must be a non-identity subgroup point")
	}
	h3 := c.HashToGroup("dst", []byte("other message"))
	if c.Equal(h1, h3) {
		t.Fatal("distinct messages must hash to distinct points")
	}
	h4 := c.HashToGroup("other-dst", []byte("message"))
	if c.Equal(h1, h4) {
		t.Fatal("distinct domains must hash to distinct points")
	}
}

func TestHashToGroupManyInputsStayOnCurve(t *testing.T) {
	c := testCurve(t)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		p := c.HashToGroup("spread", []byte{byte(i), byte(i >> 4)})
		if !c.InSubgroup(p) {
			t.Fatal("hash output outside subgroup")
		}
		seen[p.String()] = true
	}
	if len(seen) != 64 {
		t.Fatalf("hash collisions among 64 inputs: %d distinct", len(seen))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := testCurve(t)
	pts := []Point{testGen(t, c), Infinity()}
	for i := 0; i < 16; i++ {
		pts = append(pts, c.HashToGroup("marshal", []byte{byte(i)}))
	}
	for _, p := range pts {
		enc := c.Marshal(p)
		if len(enc) != c.MarshalSize() {
			t.Fatalf("encoding size %d, want %d", len(enc), c.MarshalSize())
		}
		back, err := c.Unmarshal(enc)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !c.Equal(p, back) {
			t.Fatal("marshal round trip mismatch")
		}
		back2, err := c.UnmarshalSubgroup(enc)
		if err != nil {
			t.Fatalf("UnmarshalSubgroup: %v", err)
		}
		if !c.Equal(p, back2) {
			t.Fatal("subgroup unmarshal mismatch")
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)

	cases := map[string][]byte{
		"short":            {0x02, 0x01},
		"bad tag":          append([]byte{0x07}, c.Marshal(g)[1:]...),
		"nonzero infinity": func() []byte { b := c.Marshal(Infinity()); b[3] = 1; return b }(),
		"x >= p":           append([]byte{0x02}, c.F.P().FillBytes(make([]byte, c.F.ByteLen()))...),
	}
	for name, enc := range cases {
		if _, err := c.Unmarshal(enc); err == nil {
			t.Errorf("%s: Unmarshal must fail", name)
		}
	}

	// An x whose x³+x is a non-square must be rejected; find one.
	for i := 0; i < 200; i++ {
		x, err := c.F.Rand(nil)
		if err != nil {
			t.Fatal(err)
		}
		rhs := c.rhs(x)
		if rhs.Sign() != 0 && c.F.Legendre(rhs) == -1 {
			enc := append([]byte{0x02}, c.F.Bytes(x)...)
			if _, err := c.Unmarshal(enc); err == nil {
				t.Fatal("non-curve x must be rejected")
			}
			return
		}
	}
	t.Fatal("could not find non-square rhs (statistically impossible)")
}

func TestUnmarshalSubgroupRejectsCofactorPoints(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 64; i++ {
		p, err := c.RandomPoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.InSubgroup(p) {
			continue
		}
		enc := c.Marshal(p)
		if _, err := c.Unmarshal(enc); err != nil {
			t.Fatalf("plain Unmarshal must accept curve points: %v", err)
		}
		if _, err := c.UnmarshalSubgroup(enc); err == nil {
			t.Fatal("UnmarshalSubgroup must reject non-subgroup points")
		}
		return
	}
	t.Skip("no non-subgroup point found in 64 draws")
}

func TestRandScalarRange(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 32; i++ {
		k, err := c.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() <= 0 || k.Cmp(c.Q) >= 0 {
			t.Fatalf("scalar %v out of range", k)
		}
	}
}

func TestPointString(t *testing.T) {
	if Infinity().String() != "∞" {
		t.Fatal("infinity String")
	}
}
