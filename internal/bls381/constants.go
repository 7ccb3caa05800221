package bls381

import "math/big"

// Generator coordinates from the BLS12-381 specification (the zcash /
// IETF standard generators); pinned on-curve, in-subgroup, and against
// their standard compressed encodings by TestGenerators and the golden
// vectors in testdata/.
const (
	g1xHex = "17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"
	g1yHex = "08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"

	g2x0Hex = "024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"
	g2x1Hex = "13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e"
	g2y0Hex = "0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801"
	g2y1Hex = "0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"
)

func mustBig(hex string) *big.Int {
	n, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("bls381: bad hex constant")
	}
	return n
}

// initTowerConstants derives the Frobenius and ψ-endomorphism
// coefficients from first principles: γ1 = ξ^((p−1)/6) is the sixth
// root that conjugation drags out of w (w^p = γ1·w), and everything
// else is a power or inverse of it. One-time cost, no magic numbers.
func initTowerConstants() {
	var xi fe2
	xi.fromUint64(1, 1)
	e := new(big.Int).Sub(ctx.p, big.NewInt(1))
	e.Div(e, big.NewInt(6))
	ctx.gamma1.exp(&xi, e)
	ctx.gamma2.sqr(&ctx.gamma1)
	ctx.gamma4.sqr(&ctx.gamma2)

	// ψ(x', y') = (x̄'·γ1⁻², ȳ'·γ1⁻³): untwist, apply Frobenius on
	// E(Fp12), twist back.
	var gamma3 fe2
	gamma3.mul(&ctx.gamma2, &ctx.gamma1)
	ctx.psiX.inv(&ctx.gamma2)
	ctx.psiY.inv(&gamma3)
}

func initGenerators() {
	ctx.g1.x.fromBig(mustBig(g1xHex))
	ctx.g1.y.fromBig(mustBig(g1yHex))
	ctx.g2.x.fromBig(mustBig(g2x0Hex), mustBig(g2x1Hex))
	ctx.g2.y.fromBig(mustBig(g2y0Hex), mustBig(g2y1Hex))
}

// initBeta derives φ's β as g^((p−1)/3) for the first g ≥ 2 that gives
// β ≠ 1, checks β³ = 1, and keeps whichever of β, β² makes φ act as
// [−x²] on the generator (the other acts as [x² − 1]).
func initBeta() {
	e := new(big.Int).Sub(ctx.p, big.NewInt(1))
	third := feLimbsOf(e.Div(e, big.NewInt(3)))
	for g := int64(2); ctx.beta.isZero() || ctx.beta.isOne(); g++ {
		var b fe
		b.fromBig(big.NewInt(g))
		ctx.beta.exp(&b, &third)
	}
	var b3 fe
	b3.sqr(&ctx.beta)
	if b3.mul(&b3, &ctx.beta); !b3.isOne() {
		panic("bls381: β³ != 1")
	}
	if !ctx.g1.inSubgroup() {
		ctx.beta.sqr(&ctx.beta)
	}
	if !ctx.g1.inSubgroup() {
		panic("bls381: neither cube root of unity acts as [−x²] on G1")
	}
}

// initSVDW derives the Shallue–van de Woestijne map constants for
// E'(Fp2): y² = x³ + 4(1+i) with Z = −1 (g(Z) = 3 + 4i ≠ 0 and
// −g(Z)·3Z² is a square, the RFC 9380 §6.6.1 requirements):
//
//	c1 = g(Z)   c2 = −Z/2   c3 = √(−g(Z)·3Z²), sgn0(c3) = 0
//	c4 = −4·g(Z)/(3Z²)
func initSVDW() {
	var z, z2, three, gz, t fe2
	z.fromUint64(1, 0)
	z.neg(&z) // Z = −1
	ctx.svdwZ.set(&z)

	var b fe2
	b.fromUint64(4, 4)
	z2.sqr(&z)
	gz.mul(&z2, &z)
	gz.add(&gz, &b) // g(Z) = Z³ + b
	ctx.svdwC1.set(&gz)

	// c2 = −Z/2 = 1/2
	var half2 fe2
	half2.c0.set(&ctx.half)
	t.neg(&z)
	ctx.svdwC2.mul(&t, &half2)

	three.fromUint64(3, 0)
	var tz2 fe2
	tz2.mul(&three, &z2) // 3Z²
	t.mul(&gz, &tz2)
	t.neg(&t)
	if !ctx.svdwC3.sqrt(&t) {
		panic("bls381: SVDW c3 not a square (bad Z)")
	}
	if ctx.svdwC3.sgn0() != 0 {
		ctx.svdwC3.neg(&ctx.svdwC3)
	}

	var four fe2
	four.fromUint64(4, 0)
	t.mul(&four, &gz)
	t.neg(&t)
	var inv fe2
	inv.inv(&tz2)
	ctx.svdwC4.mul(&t, &inv)
}
