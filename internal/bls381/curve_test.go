package bls381

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"
)

func randScalarT(t testing.TB) *big.Int {
	t.Helper()
	initCtx()
	k, err := rand.Int(rand.Reader, ctx.r)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// randG1 returns a uniformly random point of G1 (a scalar multiple of
// the generator).
func randG1(t testing.TB) g1Affine {
	initCtx()
	var j g1Jac
	j.fromAffine(&ctx.g1)
	j.scalarMult(&j, randScalarT(t))
	return j.toAffine()
}

func randG2(t testing.TB) g2Affine {
	initCtx()
	var j g2Jac
	j.fromAffine(&ctx.g2)
	j.scalarMult(&j, randScalarT(t))
	return j.toAffine()
}

func TestGenerators(t *testing.T) {
	initCtx()
	if !ctx.g1.isOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
	if !ctx.g2.isOnCurve() {
		t.Fatal("G2 generator not on twist")
	}
	if !ctx.g1.inSubgroup() {
		t.Fatal("G1 generator not in subgroup")
	}
	if !ctx.g2.inSubgroup() {
		t.Fatal("G2 generator not in subgroup")
	}
	// Order exactly r: [r]G = O already covered by inSubgroup; also
	// require [1]G ≠ O trivially.
	var j g1Jac
	j.fromAffine(&ctx.g1)
	j.scalarMult(&j, ctx.r)
	if !j.isInfinity() {
		t.Fatal("[r]G1 != O")
	}
	var k g2Jac
	k.fromAffine(&ctx.g2)
	k.scalarMult(&k, ctx.r)
	if !k.isInfinity() {
		t.Fatal("[r]G2 != O")
	}
}

func TestG1GroupLaw(t *testing.T) {
	a, b := randG1(t), randG1(t)
	var ja, jb, jab, jba g1Jac
	ja.fromAffine(&a)
	jb.fromAffine(&b)
	jab.add(&ja, &jb)
	jba.add(&jb, &ja)
	p1, p2 := jab.toAffine(), jba.toAffine()
	if !p1.equal(&p2) {
		t.Fatal("G1 addition not commutative")
	}
	if !p1.isOnCurve() {
		t.Fatal("G1 sum off curve")
	}
	// (a + a) via add() falls back to double().
	var jd, js g1Jac
	jd.double(&ja)
	js.add(&ja, &ja)
	d1, d2 := jd.toAffine(), js.toAffine()
	if !d1.equal(&d2) {
		t.Fatal("G1 add(a,a) != double(a)")
	}
	// a + (−a) = O.
	var na g1Affine
	na.neg(&a)
	var jn g1Jac
	jn.fromAffine(&na)
	jn.add(&ja, &jn)
	if !jn.isInfinity() {
		t.Fatal("a + (−a) != O")
	}
	// Scalar distributivity: [k1+k2]P = [k1]P + [k2]P.
	k1, k2 := randScalarT(t), randScalarT(t)
	sum := new(big.Int).Add(k1, k2)
	var l, r1, r2, r3 g1Jac
	l.fromAffine(&a)
	l.scalarMult(&l, sum)
	r1.fromAffine(&a)
	r1.scalarMult(&r1, k1)
	r2.fromAffine(&a)
	r2.scalarMult(&r2, k2)
	r3.add(&r1, &r2)
	lp, rp := l.toAffine(), r3.toAffine()
	if !lp.equal(&rp) {
		t.Fatal("G1 scalar mult not distributive")
	}
}

func TestG2GroupLaw(t *testing.T) {
	a, b := randG2(t), randG2(t)
	var ja, jb, jab g2Jac
	ja.fromAffine(&a)
	jb.fromAffine(&b)
	jab.add(&ja, &jb)
	p1 := jab.toAffine()
	if !p1.isOnCurve() {
		t.Fatal("G2 sum off twist")
	}
	var jm g2Jac
	jm.addAffine(&ja, &b)
	pm := jm.toAffine()
	if !pm.equal(&p1) {
		t.Fatal("G2 mixed add disagrees")
	}
	k1, k2 := randScalarT(t), randScalarT(t)
	sum := new(big.Int).Add(k1, k2)
	var l, r1, r2, r3 g2Jac
	l.fromAffine(&a)
	l.scalarMult(&l, sum)
	r1.fromAffine(&a)
	r1.scalarMult(&r1, k1)
	r2.fromAffine(&a)
	r2.scalarMult(&r2, k2)
	r3.add(&r1, &r2)
	lp, rp := l.toAffine(), r3.toAffine()
	if !lp.equal(&rp) {
		t.Fatal("G2 scalar mult not distributive")
	}
}

func TestPsiSubgroupCheck(t *testing.T) {
	// ψ-based check accepts genuine subgroup points…
	for i := 0; i < 5; i++ {
		q := randG2(t)
		if !q.inSubgroup() {
			t.Fatal("subgroup point rejected by psi check")
		}
	}
	// …and rejects twist points outside G2. Build one by hashing to the
	// curve WITHOUT clearing the cofactor: with overwhelming probability
	// its order does not divide r.
	var u fe2
	u.fromUint64(7, 11)
	p := svdwMap(&u)
	if !p.isOnCurve() {
		t.Fatal("svdw output off curve")
	}
	var j g2Jac
	j.fromAffine(&p)
	j.scalarMult(&j, ctx.r)
	if j.isInfinity() {
		t.Skip("unlucky: uncleared point already in subgroup")
	}
	if p.inSubgroup() {
		t.Fatal("psi check accepted a non-subgroup twist point")
	}
}

func TestG1Serialization(t *testing.T) {
	for i := 0; i < 10; i++ {
		p := randG1(t)
		enc := marshalG1(nil, &p)
		if len(enc) != 48 {
			t.Fatalf("len = %d", len(enc))
		}
		got, err := unmarshalG1(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.equal(&p) {
			t.Fatal("G1 round trip mismatch")
		}
	}
	// Infinity.
	inf := g1Infinity()
	enc := marshalG1(nil, &inf)
	if enc[0] != 0xc0 {
		t.Fatalf("infinity flag byte %#x", enc[0])
	}
	got, err := unmarshalG1(enc)
	if err != nil || !got.isInfinity() {
		t.Fatal("G1 infinity round trip failed")
	}
	// Non-canonical encodings must be rejected.
	bad := make([]byte, 48)
	copy(bad, enc)
	bad[47] = 1 // infinity with nonzero payload
	if _, err := unmarshalG1(bad); err == nil {
		t.Fatal("accepted non-canonical infinity")
	}
	p := randG1(t)
	enc = marshalG1(nil, &p)
	enc[0] &^= 0x80 // clear compression bit
	if _, err := unmarshalG1(enc); err == nil {
		t.Fatal("accepted uncompressed-flagged point")
	}
}

func TestG2Serialization(t *testing.T) {
	for i := 0; i < 10; i++ {
		p := randG2(t)
		enc := marshalG2(nil, &p)
		if len(enc) != 96 {
			t.Fatalf("len = %d", len(enc))
		}
		got, err := unmarshalG2(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.equal(&p) {
			t.Fatal("G2 round trip mismatch")
		}
	}
	inf := g2Infinity()
	enc := marshalG2(nil, &inf)
	got, err := unmarshalG2(enc)
	if err != nil || !got.isInfinity() {
		t.Fatal("G2 infinity round trip failed")
	}
	// x ≥ p must be rejected.
	p := randG2(t)
	enc = marshalG2(nil, &p)
	enc[0] = 0x9f // compression flag + maximal masked top bits
	for i := 1; i < 48; i++ {
		enc[i] = 0xff
	}
	if _, err := unmarshalG2(enc); err == nil {
		t.Fatal("accepted x.c1 >= p")
	}
}

// TestGeneratorGoldenEncodings pins the serialization format against
// the standard compressed encodings of the BLS12-381 generators used
// by every interoperable implementation (zcash format).
func TestGeneratorGoldenEncodings(t *testing.T) {
	initCtx()
	g1Want := "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"
	enc := marshalG1(nil, &ctx.g1)
	if hex.EncodeToString(enc) != g1Want {
		t.Fatalf("G1 generator encoding mismatch:\n got %x\nwant %s", enc, g1Want)
	}
	g2Want := "93e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e" +
		"024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"
	enc2 := marshalG2(nil, &ctx.g2)
	if hex.EncodeToString(enc2) != g2Want {
		t.Fatalf("G2 generator encoding mismatch:\n got %x\nwant %s", enc2, g2Want)
	}
	// Negated generators flip only the sign bit.
	var n1 g1Affine
	n1.neg(&ctx.g1)
	encN := marshalG1(nil, &n1)
	if encN[0] != enc[0]^0x20 || !bytes.Equal(encN[1:], enc[1:]) {
		t.Fatal("negated G1 generator does not differ only in the sign bit")
	}
}
