// Package bls381 is a from-scratch implementation of the BLS12-381
// pairing-friendly curve: the base field tower Fp → Fp2 → Fp6 → Fp12,
// the groups G1 (over Fp) and G2 (over Fp2, on the sextic M-twist),
// the optimal-ate Miller loop with the BLS final exponentiation, and
// the RFC 9380 hash-to-curve pipeline used to map time labels into G2.
//
// It is a Type-3 (asymmetric) backend for the timed-release scheme: the
// paper's supersingular Type-1 curves stay available as the reference
// backends, while this curve provides ~128-bit security with pairings
// that are an order of magnitude faster than SS1024.
//
// The field arithmetic runs on the repo's fixed-limb Montgomery
// machinery (internal/ff.Mont, 6×64-bit limbs for the 381-bit prime);
// nothing here depends on third-party crypto libraries. Like the rest
// of the repository this code is NOT constant time (see README threat
// model): exponent ladders branch on bits and reductions branch on
// comparisons.
package bls381

import (
	"math/big"
	"sync"

	"timedrelease/internal/ff"
)

// Curve constants. x is the BLS parameter: p and r are polynomials in
// x, which is why the Miller loop and the final exponentiation both
// walk |x|'s bits. All hex values are pinned by TestCurveConstants
// against their defining polynomial identities.
const (
	// pHex is the 381-bit base field prime p = (x−1)²·(x⁴−x²+1)/3 + x.
	pHex = "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"
	// rHex is the 255-bit subgroup order r = x⁴ − x² + 1.
	rHex = "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"
	// xAbsHex is |x| for the (negative) BLS parameter x = −2^63 − 2^62 − 2^60 − 2^57 − 2^48 − 2^16.
	xAbsHex = "d201000000010000"
	// h1Hex is the G1 cofactor (p + 1 − t)/r with trace t = x + 1.
	h1Hex = "396c8c005555e1568c00aaab0000aaab"
)

// feLimbs is the limb count for the 381-bit prime; fe is sized to it so
// elements live inline in structs and on the stack, not behind slices.
const feLimbs = 6

// feByteLen is the big-endian serialized size of one Fp element.
const feByteLen = 48

// fe is one Fp element in Montgomery form (little-endian limbs). The
// zero value is the field's zero. Arithmetic delegates to the shared
// ff.Mont context via z[:] slice views, which stay on the stack.
type fe [feLimbs]uint64

// ctx holds the lazily built package-level arithmetic context: the
// Montgomery machinery plus every derived constant (tower frobenius
// coefficients, SVDW map constants, generators). Building it costs a
// few big.Int exponentiations and happens once per process.
var ctx struct {
	once sync.Once

	p, r, xAbs *big.Int
	h1         *big.Int
	pm2        *big.Int

	fp   *ff.Field
	mnt  *ff.Mont
	half fe // 1/2

	// sqrt exponent (p+1)/4 for p ≡ 3 (mod 4), and (p-1)/2 for the
	// Euler residue test.
	sqrtExp  *big.Int
	eulerExp *big.Int

	// Frobenius: w^p = γ1·w with γ1 = ξ^((p−1)/6), so v^p = γ1²·v and
	// (v²)^p = γ1⁴·v².
	gamma1, gamma2, gamma4 fe2
	// ψ (untwist-Frobenius-twist) coefficients γ1⁻², γ1⁻³.
	psiX, psiY fe2

	// SVDW map-to-curve constants for E'(Fp2) with Z = −1 (svdwZ).
	svdwZ, svdwC1, svdwC2, svdwC3, svdwC4 fe2

	g1 g1Affine
	g2 g2Affine
}

func initCtx() {
	ctx.once.Do(func() {
		fromHex := func(s string) *big.Int {
			n, ok := new(big.Int).SetString(s, 16)
			if !ok {
				panic("bls381: bad constant")
			}
			return n
		}
		ctx.p = fromHex(pHex)
		ctx.r = fromHex(rHex)
		ctx.xAbs = fromHex(xAbsHex)
		ctx.h1 = fromHex(h1Hex)

		fp, err := ff.NewField(ctx.p)
		if err != nil {
			panic("bls381: field: " + err.Error())
		}
		ctx.fp = fp
		ctx.mnt = fp.Mont()
		if ctx.mnt == nil || ctx.mnt.Limbs() != feLimbs {
			panic("bls381: Montgomery backend unavailable for p")
		}

		initFeArith()

		one := big.NewInt(1)
		ctx.pm2 = new(big.Int).Sub(ctx.p, big.NewInt(2))
		ctx.sqrtExp = new(big.Int).Rsh(new(big.Int).Add(ctx.p, one), 2)
		ctx.eulerExp = new(big.Int).Rsh(new(big.Int).Sub(ctx.p, one), 1)

		two := big.NewInt(2)
		halfBig := new(big.Int).ModInverse(two, ctx.p)
		ctx.half.fromBig(halfBig)

		initTowerConstants()
		initGenerators()
		initSVDW()
	})
}

// --- fe helpers -----------------------------------------------------

func (z *fe) set(x *fe)    { *z = *x }
func (z *fe) setZero()     { *z = fe{} }
func (z *fe) setOne()      { ctx.mnt.SetOne(z[:]) }
func (z *fe) isZero() bool { return ctx.mnt.IsZero(z[:]) }
func (z *fe) isOne() bool  { return ctx.mnt.IsOne(z[:]) }
func (z *fe) equal(x *fe) bool {
	return ctx.mnt.Equal(z[:], x[:])
}

func (z *fe) add(x, y *fe) { feAdd(z, x, y) }
func (z *fe) dbl(x *fe)    { feDouble(z, x) }
func (z *fe) sub(x, y *fe) { feSub(z, x, y) }
func (z *fe) neg(x *fe)    { feNeg(z, x) }
func (z *fe) mul(x, y *fe) { feMul(z, x, y) }
func (z *fe) sqr(x *fe)    { feSqr(z, x) }

// exp is square-and-multiply on the fixed-limb routines.
func (z *fe) exp(x *fe, e *big.Int) {
	var base, acc fe
	base.set(x)
	acc.setOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		feSqr(&acc, &acc)
		if e.Bit(i) == 1 {
			feMul(&acc, &acc, &base)
		}
	}
	z.set(&acc)
}

// inv is the Fermat inverse x^(p−2); panics on zero like ff.Mont.Inv.
func (z *fe) inv(x *fe) {
	if x.isZero() {
		panic("bls381: inverse of zero")
	}
	pm2 := ctx.pm2
	z.exp(x, pm2)
}

// fromBig loads a (not necessarily reduced) big.Int into Montgomery form.
func (z *fe) fromBig(x *big.Int) {
	v := x
	if v.Sign() < 0 || v.Cmp(ctx.p) >= 0 {
		v = new(big.Int).Mod(x, ctx.p)
	}
	ctx.mnt.ToMont(z[:], v)
}

// toBig returns the plain (non-Montgomery) integer value.
func (z *fe) toBig() *big.Int {
	return ctx.mnt.FromMont(nil, z[:])
}

// isResidue reports whether z is a square in Fp (true for zero).
func (z *fe) isResidue() bool {
	if z.isZero() {
		return true
	}
	var t fe
	t.exp(z, ctx.eulerExp)
	return t.isOne()
}

// sqrt sets z = √x for p ≡ 3 (mod 4) and reports success; on failure z
// is unspecified.
func (z *fe) sqrt(x *fe) bool {
	var c, t fe
	c.exp(x, ctx.sqrtExp)
	t.sqr(&c)
	if !t.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

// sgn0 is the RFC 9380 sign of an Fp element: its parity as a plain
// integer.
func (z *fe) sgn0() uint64 {
	var plain big.Int
	ctx.mnt.FromMont(&plain, z[:])
	return uint64(plain.Bit(0))
}

// bytes appends the 48-byte big-endian encoding of z to dst.
func (z *fe) bytes(dst []byte) []byte {
	var plain big.Int
	ctx.mnt.FromMont(&plain, z[:])
	var buf [feByteLen]byte
	plain.FillBytes(buf[:])
	return append(dst, buf[:]...)
}

// feFromBytes parses a canonical 48-byte big-endian Fp element,
// rejecting values ≥ p.
func feFromBytes(b []byte) (fe, bool) {
	var z fe
	if len(b) != feByteLen {
		return z, false
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(ctx.p) >= 0 {
		return z, false
	}
	ctx.mnt.ToMont(z[:], v)
	return z, true
}
