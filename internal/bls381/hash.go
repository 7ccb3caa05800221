package bls381

import (
	"crypto/sha256"
	"math/big"
)

// RFC 9380 hash-to-curve for G2, every step the RFC's own:
// expand_message_xmd and hash_to_field (pinned by the appendix K.1
// golden vectors in testdata/), the Shallue–van de Woestijne map of
// §6.6.1, and App. G.3's clear_cofactor with h_eff. Only the choice of
// map departs from the ciphersuite registry: SVDW needs no isogeny
// constants and works directly on y² = x³ + 4(1+i), where the
// registered suite maps with the 3-isogeny-based SSWU. The suite is
// therefore BLS12381G2_XMD:SHA-256_SVDW_RO_ — deterministic and
// uniform, but still NOT the registered _SSWU_ one, so
// cross-implementation label hashes differ (docs/BACKENDS.md records
// this trade-off).

const expandLenInBytes = 256 // count=2 · m=2 · L=64

// expandMessageXMD is expand_message_xmd(msg, dst, len) with SHA-256.
func expandMessageXMD(msg []byte, dst string, outLen int) []byte {
	const bLen = sha256.Size // 32
	const sLen = 64          // SHA-256 block size
	ell := (outLen + bLen - 1) / bLen
	if ell > 255 || len(dst) > 255 {
		panic("bls381: expand_message_xmd parameter overflow")
	}
	dstPrime := append([]byte(dst), byte(len(dst)))

	h := sha256.New()
	var zPad [sLen]byte
	h.Write(zPad[:])
	h.Write(msg)
	h.Write([]byte{byte(outLen >> 8), byte(outLen)})
	h.Write([]byte{0})
	h.Write(dstPrime)
	b0 := h.Sum(nil)

	out := make([]byte, 0, ell*bLen)
	bi := make([]byte, bLen) // b₀ ⊕ 0 = b₀ is what b₁ hashes
	for i := 1; i <= ell; i++ {
		for j := range bi {
			bi[j] ^= b0[j]
		}
		h.Reset()
		h.Write(bi)
		h.Write([]byte{byte(i)})
		h.Write(dstPrime)
		bi = h.Sum(bi[:0])
		out = append(out, bi...)
	}
	return out[:outLen]
}

// hashToFieldFp2 is hash_to_field with m = 2, count = 2, L = 64.
func hashToFieldFp2(msg []byte, dst string) (u0, u1 fe2) {
	initCtx()
	uniform := expandMessageXMD(msg, dst, expandLenInBytes)
	const L = 64
	take := func(i int) *big.Int {
		v := new(big.Int).SetBytes(uniform[i*L : (i+1)*L])
		return v.Mod(v, ctx.p)
	}
	u0.c0.fromBig(take(0))
	u0.c1.fromBig(take(1))
	u1.c0.fromBig(take(2))
	u1.c1.fromBig(take(3))
	return u0, u1
}

// svdwMaps is the straight-line Shallue–van de Woestijne map of RFC 9380
// §6.6.1 for E'(Fp2) (A = 0, B = 4+4i, Z = −1), run on u0 and u1 at
// once; the residue tests of g(x1), g(x2) are the norm roots sqrtNorm
// then reuses.
// Outputs equal the one-at-a-time map's (TestSvdwMatchesParent), are on
// the twist and NOT yet in G2; callers clear the cofactor. u comes from
// public labels or client-local seeds, so the branches leak nothing.
func svdwMaps(u0, u1 *fe2) (p [2]g2Affine) {
	initCtx()
	us := [2]*fe2{u0, u1}
	one := fe2{c0: ctx.one}
	var tv1, tv2, tv3 [2]fe2
	for i, u := range us {
		tv1[i].sqr(u)
		tv1[i].mul(&tv1[i], &ctx.svdwC1)
		tv2[i].add(&one, &tv1[i])
		tv1[i].sub(&one, &tv1[i])
		tv3[i].mul(&tv1[i], &tv2[i])
	}
	for i := range tv3 {
		if !tv3[i].isZero() { // inv0: the exceptional case maps through zero
			tv3[i].inv(&tv3[i])
		}
	}
	for i, u := range us {
		var tv4, x, y fe2
		tv4.mul(u, &tv1[i])
		tv4.mul(&tv4, &tv3[i])
		tv4.mul(&tv4, &ctx.svdwC3)
		x.sub(&ctx.svdwC2, &tv4) // x1
		gx := twistRHS(&x)
		n, ok := gx.normRoot()
		if !ok {
			x.add(&ctx.svdwC2, &tv4) // x2
			gx = twistRHS(&x)
			if n, ok = gx.normRoot(); !ok {
				x.sqr(&tv2[i]) // x3
				x.mul(&x, &tv3[i])
				x.sqr(&x)
				x.mul(&x, &ctx.svdwC4)
				x.add(&x, &ctx.svdwZ)
				gx = twistRHS(&x)
				n, _ = gx.normRoot()
			}
		}
		if !y.sqrtNorm(&gx, &n) {
			panic("bls381: svdw produced a non-square g(x)")
		}
		if u.sgn0() != y.sgn0() {
			y.neg(&y)
		}
		p[i] = g2Affine{x: x, y: y}
	}
	return p
}

// mapToTwist is the random-oracle construction short of its last step:
// two field elements, two curve mappings, one addition — a point of the
// twist whose cofactor is still to be cleared.
func mapToTwist(j *g2Jac, msg []byte, dst string) {
	u0, u1 := hashToFieldFp2(msg, dst)
	p := svdwMaps(&u0, &u1)
	j.fromAffine(&p[0])
	j.addAffine(j, &p[1])
}

// hashToG2 is the full construction: mapToTwist, then one cofactor
// clearing.
func hashToG2(msg []byte, dst string) g2Affine {
	var j g2Jac
	mapToTwist(&j, msg, dst)
	j.clearCofactor(&j)
	return j.toAffine()
}
