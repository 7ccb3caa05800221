package pairing

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"

	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
)

// The same 96/48-bit test parameters as package curve (p = h·q − 1).
var (
	testP = mustInt("8f98a3660038a5b78edf9f53")
	testQ = mustInt("922af50d1a7f")
)

func mustInt(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("bad literal: " + s)
	}
	return n
}

func testPairing(t *testing.T) *Pairing {
	t.Helper()
	f, err := ff.NewField(testP)
	if err != nil {
		t.Fatal(err)
	}
	pp1 := new(big.Int).Add(testP, big.NewInt(1))
	h := new(big.Int).Quo(pp1, testQ)
	c, err := curve.New(f, testQ, h)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func gen(t *testing.T, pr *Pairing, seed byte) curve.Point {
	t.Helper()
	return pr.C.HashToGroup("pairing-test", []byte{seed})
}

func TestBilinearity(t *testing.T) {
	pr := testPairing(t)
	p := gen(t, pr, 1)
	q := gen(t, pr, 2)
	base := pr.Pair(p, q)

	cfg := &quick.Config{MaxCount: 25}
	bilinear := func(ka, kb uint16) bool {
		a := big.NewInt(int64(ka)%1000 + 1)
		b := big.NewInt(int64(kb)%1000 + 1)
		lhs := pr.Pair(pr.C.ScalarMult(a, p), pr.C.ScalarMult(b, q))
		ab := new(big.Int).Mul(a, b)
		rhs := pr.GTExpUnitary(base, ab)
		return pr.GTEqual(lhs, rhs)
	}
	if err := quick.Check(bilinear, cfg); err != nil {
		t.Error(err)
	}
}

func TestLinearityInEachSlot(t *testing.T) {
	pr := testPairing(t)
	p1, p2, q := gen(t, pr, 3), gen(t, pr, 4), gen(t, pr, 5)
	// ê(P1+P2, Q) = ê(P1,Q)·ê(P2,Q)
	lhs := pr.Pair(pr.C.Add(p1, p2), q)
	rhs := pr.GTMul(pr.Pair(p1, q), pr.Pair(p2, q))
	if !pr.GTEqual(lhs, rhs) {
		t.Fatal("pairing not linear in first slot")
	}
	// ê(Q, P1+P2) = ê(Q,P1)·ê(Q,P2)
	lhs = pr.Pair(q, pr.C.Add(p1, p2))
	rhs = pr.GTMul(pr.Pair(q, p1), pr.Pair(q, p2))
	if !pr.GTEqual(lhs, rhs) {
		t.Fatal("pairing not linear in second slot")
	}
}

func TestSymmetry(t *testing.T) {
	// The distortion-map pairing is symmetric — the Type-1 property the
	// paper's constructions (and their security proofs) rely on.
	pr := testPairing(t)
	for i := byte(0); i < 5; i++ {
		p, q := gen(t, pr, 10+i), gen(t, pr, 20+i)
		if !pr.GTEqual(pr.Pair(p, q), pr.Pair(q, p)) {
			t.Fatal("pairing is not symmetric")
		}
	}
}

func TestNonDegeneracy(t *testing.T) {
	pr := testPairing(t)
	p := gen(t, pr, 6)
	if pr.GTIsOne(pr.Pair(p, p)) {
		t.Fatal("ê(P, P) = 1: distortion map failed")
	}
	q := gen(t, pr, 7)
	if pr.GTIsOne(pr.Pair(p, q)) {
		t.Fatal("ê(P, Q) = 1 for independent non-identity points")
	}
}

func TestIdentityGivesOne(t *testing.T) {
	pr := testPairing(t)
	p := gen(t, pr, 8)
	if !pr.GTIsOne(pr.Pair(curve.Infinity(), p)) || !pr.GTIsOne(pr.Pair(p, curve.Infinity())) {
		t.Fatal("pairing with the identity must be 1")
	}
}

func TestOutputHasOrderQ(t *testing.T) {
	pr := testPairing(t)
	g := pr.Pair(gen(t, pr, 9), gen(t, pr, 10))
	if !pr.GTIsOne(pr.GTExpUnitary(g, pr.C.Q)) {
		t.Fatal("pairing output not killed by q")
	}
	if pr.GTIsOne(g) {
		t.Fatal("pairing output is trivially 1")
	}
	// The output must not be killed by small factors: g^k ≠ 1 for k < q
	// would contradict prime order (spot-check a few k).
	for _, k := range []int64{2, 3, 65537} {
		if pr.GTIsOne(pr.GTExpUnitary(g, big.NewInt(k))) {
			t.Fatalf("pairing output killed by %d — not of prime order q", k)
		}
	}
}

func TestPairProductMatchesIndividual(t *testing.T) {
	pr := testPairing(t)
	pairs := []PointPair{
		{P: gen(t, pr, 11), Q: gen(t, pr, 12)},
		{P: gen(t, pr, 13), Q: gen(t, pr, 14)},
		{P: gen(t, pr, 15), Q: gen(t, pr, 16)},
	}
	product := pr.PairProduct(pairs)
	expect := pr.GTOne()
	for _, pq := range pairs {
		expect = pr.GTMul(expect, pr.Pair(pq.P, pq.Q))
	}
	if !pr.GTEqual(product, expect) {
		t.Fatal("PairProduct != product of pairings")
	}
}

func TestPairProductSkipsInfinity(t *testing.T) {
	pr := testPairing(t)
	p, q := gen(t, pr, 17), gen(t, pr, 18)
	withInf := pr.PairProduct([]PointPair{
		{P: p, Q: q},
		{P: curve.Infinity(), Q: q},
	})
	if !pr.GTEqual(withInf, pr.Pair(p, q)) {
		t.Fatal("infinity factor must contribute 1")
	}
}

func TestSamePairing(t *testing.T) {
	pr := testPairing(t)
	p, q := gen(t, pr, 19), gen(t, pr, 20)
	s := big.NewInt(424242)
	// ê(sP, Q) == ê(P, sQ)
	if !pr.SamePairing(pr.C.ScalarMult(s, p), q, p, pr.C.ScalarMult(s, q)) {
		t.Fatal("SamePairing false negative")
	}
	if pr.SamePairing(p, q, p, pr.C.Add(q, p)) {
		t.Fatal("SamePairing false positive")
	}
}

func TestPairAgreesWithNaiveExponentPath(t *testing.T) {
	// ê(aP, Q) computed directly must equal ê(P, Q)^a computed in G2 —
	// cross-validates the Miller loop against extension-field
	// exponentiation.
	pr := testPairing(t)
	p, q := gen(t, pr, 21), gen(t, pr, 22)
	a := big.NewInt(987654321)
	direct := pr.Pair(pr.C.ScalarMult(a, p), q)
	viaExp := pr.GTExpUnitary(pr.Pair(p, q), a)
	if !pr.GTEqual(direct, viaExp) {
		t.Fatal("Miller-loop path disagrees with G2 exponent path")
	}
}

func TestNewRejectsNilCurve(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) must fail")
	}
}

func TestDecisionalDiffieHellmanIsEasy(t *testing.T) {
	// The defining property of a Gap DH group (paper §4): DDH is solvable
	// with the pairing by checking ê(aP, bP) == ê(P, cP).
	pr := testPairing(t)
	p := gen(t, pr, 25)
	a, b := big.NewInt(1234), big.NewInt(5678)
	ab := new(big.Int).Mul(a, b)
	aP, bP := pr.C.ScalarMult(a, p), pr.C.ScalarMult(b, p)
	good := pr.C.ScalarMult(ab, p)
	if !pr.SamePairing(aP, bP, p, good) {
		t.Fatal("DDH test rejects a valid tuple")
	}
	bad := pr.C.ScalarMult(new(big.Int).Add(ab, big.NewInt(1)), p)
	if pr.SamePairing(aP, bP, p, bad) {
		t.Fatal("DDH test accepts an invalid tuple")
	}
}

// TestGTValuesAreNeverWritten: core.Encryptor shares cached GT bases
// across goroutines, so no GT operation may write to an operand, and
// each returns storage of its own.
func TestGTValuesAreNeverWritten(t *testing.T) {
	pr := testPairing(t)
	x, y := pr.Pair(gen(t, pr, 30), gen(t, pr, 31)), pr.Pair(gen(t, pr, 32), gen(t, pr, 33))
	x0, y0 := pr.GTBytes(x), pr.GTBytes(y)
	for name, z := range map[string]GT{
		"GTMul":        pr.GTMul(x, y),
		"GTExpUnitary": pr.GTExpUnitary(x, big.NewInt(12345)),
		"FinalExp":     pr.FinalExp(x),
		"GTOne":        pr.GTOne(),
	} {
		if !bytes.Equal(pr.GTBytes(x), x0) || !bytes.Equal(pr.GTBytes(y), y0) {
			t.Fatalf("%s wrote to an operand", name)
		}
		if &z.A[0] == &x.A[0] || &z.A[0] == &y.A[0] || &z.B[0] == &x.B[0] || &z.B[0] == &y.B[0] {
			t.Fatalf("%s returned an operand's storage", name)
		}
	}
}
