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
	bi := make([]byte, bLen)
	for i := 1; i <= ell; i++ {
		h.Reset()
		if i == 1 {
			h.Write(b0)
		} else {
			x := make([]byte, bLen)
			for j := range x {
				x[j] = b0[j] ^ bi[j]
			}
			h.Write(x)
		}
		h.Write([]byte{byte(i)})
		h.Write(dstPrime)
		bi = h.Sum(nil)
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

// svdwMap is the straight-line Shallue–van de Woestijne map of RFC 9380
// §6.6.1 for E'(Fp2) (A = 0, B = 4+4i, Z = −1). Output is on the twist
// but NOT yet in G2; callers clear the cofactor.
func svdwMap(u *fe2) g2Affine {
	initCtx()
	one := fe2{}
	one.setOne()

	var tv1, tv2, tv3, tv4 fe2
	tv1.sqr(u)
	tv1.mul(&tv1, &ctx.svdwC1)
	tv2.add(&one, &tv1)
	tv1.sub(&one, &tv1)
	tv3.mul(&tv1, &tv2)
	if !tv3.isZero() { // inv0: the exceptional case maps through zero
		tv3.inv(&tv3)
	}
	tv4.mul(u, &tv1)
	tv4.mul(&tv4, &tv3)
	tv4.mul(&tv4, &ctx.svdwC3)

	var x1 fe2
	x1.sub(&ctx.svdwC2, &tv4)
	gx1 := twistRHS(&x1)
	e1 := gx1.isResidue()

	var x2 fe2
	x2.add(&ctx.svdwC2, &tv4)
	gx2 := twistRHS(&x2)
	e2 := !e1 && gx2.isResidue()

	var x3 fe2
	x3.sqr(&tv2)
	x3.mul(&x3, &tv3)
	x3.sqr(&x3)
	x3.mul(&x3, &ctx.svdwC4)
	x3.add(&x3, &ctx.svdwZ)

	var x fe2
	x.set(&x3)
	if e1 {
		x.set(&x1)
	} else if e2 {
		x.set(&x2)
	}
	var y fe2
	if gx := twistRHS(&x); !y.sqrt(&gx) {
		panic("bls381: svdw produced a non-square g(x)")
	}
	if u.sgn0() != y.sgn0() {
		y.neg(&y)
	}
	return g2Affine{x: x, y: y}
}

// mapToTwist is the random-oracle construction short of its last step:
// two field elements, two curve mappings, one addition — a point of the
// twist whose cofactor is still to be cleared.
func mapToTwist(j *g2Jac, msg []byte, dst string) {
	u0, u1 := hashToFieldFp2(msg, dst)
	p0 := svdwMap(&u0)
	p1 := svdwMap(&u1)
	j.fromAffine(&p0)
	j.addAffine(j, &p1)
}

// hashToG2 is the full construction: mapToTwist, then one cofactor
// clearing.
func hashToG2(msg []byte, dst string) g2Affine {
	var j g2Jac
	mapToTwist(&j, msg, dst)
	j.clearCofactor(&j)
	return j.toAffine()
}
