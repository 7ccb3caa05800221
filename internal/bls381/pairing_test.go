package bls381

import (
	"math/big"
	"testing"
)

func TestPairingBilinearity(t *testing.T) {
	initCtx()
	p := randG1(t)
	q := randG2(t)
	a, b := randScalarT(t), randScalarT(t)

	var jp g1Jac
	jp.fromAffine(&p)
	jp.scalarMult(&jp, a)
	ap := jp.toAffine()

	var jq g2Jac
	jq.fromAffine(&q)
	jq.scalarMult(&jq, b)
	bq := jq.toAffine()

	// e([a]P, [b]Q) == e(P, Q)^(ab)
	lhs := pair(&ap, &bq)
	base := pair(&p, &q)
	ab := new(big.Int).Mul(a, b)
	ab.Mod(ab, ctx.r)
	var rhs fe12
	rhs.expUnitary(&base, ab)
	if !lhs.equal(&rhs) {
		t.Fatal("bilinearity failed: e(aP,bQ) != e(P,Q)^ab")
	}

	// e([a]P, Q) == e(P, [a]Q)
	var jq2 g2Jac
	jq2.fromAffine(&q)
	jq2.scalarMult(&jq2, a)
	aq := jq2.toAffine()
	l2 := pair(&ap, &q)
	r2 := pair(&p, &aq)
	if !l2.equal(&r2) {
		t.Fatal("bilinearity failed: e(aP,Q) != e(P,aQ)")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	initCtx()
	e := pair(&ctx.g1, &ctx.g2)
	if e.isOne() {
		t.Fatal("e(G1, G2) == 1")
	}
	// Order divides r.
	var er fe12
	er.expUnitary(&e, ctx.r)
	if !er.isOne() {
		t.Fatal("e(G1, G2)^r != 1")
	}
	// Infinity on either side gives the identity.
	inf1 := g1Infinity()
	inf2 := g2Infinity()
	if out := pair(&inf1, &ctx.g2); !out.isOne() {
		t.Fatal("e(O, Q) != 1")
	}
	if out := pair(&ctx.g1, &inf2); !out.isOne() {
		t.Fatal("e(P, O) != 1")
	}
}

func TestPairProductAndSamePairing(t *testing.T) {
	initCtx()
	p1, p2 := randG1(t), randG1(t)
	q1, q2 := randG2(t), randG2(t)

	// Product equals the pointwise product of individual pairings.
	prod := pairProduct([]*g1Affine{&p1, &p2}, []*g2Affine{&q1, &q2})
	e1 := pair(&p1, &q1)
	e2 := pair(&p2, &q2)
	var want fe12
	want.mul(&e1, &e2)
	if !prod.equal(&want) {
		t.Fatal("pairProduct != e(P1,Q1)·e(P2,Q2)")
	}

	// SamePairing: e([k]P, Q) == e(P, [k]Q).
	k := randScalarT(t)
	var jp g1Jac
	jp.fromAffine(&p1)
	jp.scalarMult(&jp, k)
	kp := jp.toAffine()
	var jq g2Jac
	jq.fromAffine(&q1)
	jq.scalarMult(&jq, k)
	kq := jq.toAffine()
	if !samePairing(&kp, &q1, &p1, &kq) {
		t.Fatal("samePairing rejected a true equality")
	}
	if samePairing(&kp, &q1, &p2, &q2) {
		t.Fatal("samePairing accepted unrelated pairings")
	}
}

func TestHashToG2(t *testing.T) {
	const dst = "TRE-V02-CS01-with-BLS12381G2_XMD:SHA-256_SVDW_RO_"
	h1 := hashToG2([]byte("label-2026-01-01T00:00:00Z"), dst)
	h2 := hashToG2([]byte("label-2026-01-01T00:00:00Z"), dst)
	h3 := hashToG2([]byte("label-2026-01-01T00:00:10Z"), dst)
	if !h1.equal(&h2) {
		t.Fatal("hashToG2 not deterministic")
	}
	if h1.equal(&h3) {
		t.Fatal("distinct labels collided")
	}
	if h1.isInfinity() {
		t.Fatal("hash produced infinity")
	}
	if !h1.isOnCurve() || !h1.inSubgroup() {
		t.Fatal("hash output not in G2")
	}
	// Different DSTs separate domains.
	h4 := hashToG2([]byte("label-2026-01-01T00:00:00Z"), dst+"-other")
	if h1.equal(&h4) {
		t.Fatal("distinct DSTs collided")
	}
}

func TestSvdwMapOnCurve(t *testing.T) {
	initCtx()
	for i := uint64(0); i < 20; i++ {
		var u fe2
		u.fromUint64(i, 3*i+1)
		p := svdwMap(&u)
		if !p.isOnCurve() {
			t.Fatalf("svdw output off curve for u=%d", i)
		}
	}
	// The exceptional zero input maps somewhere on the curve too.
	var zero fe2
	p := svdwMap(&zero)
	if !p.isOnCurve() {
		t.Fatal("svdw(0) off curve")
	}
}

// TestPairingAgainstSignature runs the BLS signature equation the
// scheme depends on: e(G1, s·H(m)) == e(s·G1, H(m)).
func TestPairingAgainstSignature(t *testing.T) {
	initCtx()
	s := randScalarT(t)
	h := hashToG2([]byte("epoch-42"), "test-dst")

	var sg g1Jac
	sg.fromAffine(&ctx.g1)
	sg.scalarMult(&sg, s)
	spub := sg.toAffine()

	var sig g2Jac
	sig.fromAffine(&h)
	sig.scalarMult(&sig, s)
	sigA := sig.toAffine()

	if !samePairing(&ctx.g1, &sigA, &spub, &h) {
		t.Fatal("BLS signature equation failed")
	}
	// Wrong signature must fail.
	bad := randScalarT(t)
	var sig2 g2Jac
	sig2.fromAffine(&h)
	sig2.scalarMult(&sig2, bad)
	badSig := sig2.toAffine()
	if samePairing(&ctx.g1, &badSig, &spub, &h) {
		t.Fatal("BLS verification accepted a forged signature")
	}
}
