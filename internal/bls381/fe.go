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
// The base field runs on the package's own six-limb Montgomery kernel
// (fe_mul.go, generated; constants in fe_arith.go); nothing here
// depends on third-party crypto libraries. Like the rest of the
// repository this code is NOT constant time (see README threat model):
// the base field's reductions are selects, but the exponent ladders
// branch on bits and the scalar ladders on the NAF digits of k's
// endomorphism split, as the fixed windows before them did.
package bls381

import (
	"encoding/binary"
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
	// xAbs is the same |x| as a machine word, the form every ladder over
	// its bits and the scalar split divide by; initCtx pins it to xAbsHex.
	xAbs uint64 = 0xd201000000010000
	// h1Hex is the G1 cofactor (p + 1 − t)/r with trace t = x + 1.
	h1Hex = "396c8c005555e1568c00aaab0000aaab"
)

// feLimbs is the limb count for the 381-bit prime; fe is sized to it so
// elements live inline in structs and on the stack, not behind slices.
const feLimbs = 6

// feByteLen is the big-endian serialized size of one Fp element.
const feByteLen = 48

// fe is one Fp element in Montgomery form (little-endian limbs), always
// fully reduced to [0, p), so equality is array equality. The zero value
// is the field's zero.
type fe [feLimbs]uint64

// ctx holds the lazily built package-level arithmetic context: the
// Montgomery constants plus every derived constant (tower frobenius
// coefficients, SVDW map constants, generators). Building it costs a
// few big.Int exponentiations and happens once per process.
var ctx struct {
	once sync.Once

	p, r, h1 *big.Int

	one, r2 fe // R and R² mod p: Montgomery 1 and the way into Montgomery form
	half    fe // 1/2
	beta    fe // the cube root of unity for which φ(x, y) = (βx, y) is [−x²] on G1

	// The fixed public exponents of fe.exp, as plain limbs: (p+1)/4
	// (square root, p ≡ 3 mod 4), (p−3)/4 (the inverse square root
	// fe2.sqrt works on) and (p−1)/2 (the sign bound).
	sqrtExp, isqrtExp, eulerExp fe

	mont *ff.Mont // ff's context for p, whose six-limb Montgomery form is fe's: fe.inv runs its Inv

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
		ctx.p = mustBig(pHex)
		ctx.r = mustBig(rHex)
		ctx.h1 = mustBig(h1Hex)
		if mustBig(xAbsHex).Cmp(new(big.Int).SetUint64(xAbs)) != 0 {
			panic("bls381: xAbs does not match xAbsHex")
		}

		initFeArith()
		f, err := ff.NewField(ctx.p)
		if err != nil {
			panic("bls381: " + err.Error())
		}
		ctx.mont = f.Mont()

		one := big.NewInt(1)
		ctx.sqrtExp = feLimbsOf(new(big.Int).Rsh(new(big.Int).Add(ctx.p, one), 2))
		ctx.isqrtExp = feLimbsOf(new(big.Int).Rsh(new(big.Int).Sub(ctx.p, big.NewInt(3)), 2))
		ctx.eulerExp = feLimbsOf(new(big.Int).Rsh(new(big.Int).Sub(ctx.p, one), 1))

		ctx.half.fromBig(new(big.Int).ModInverse(big.NewInt(2), ctx.p))

		initTowerConstants()
		initGenerators()
		initBeta()
		initSVDW()
	})
}

// --- fe helpers -----------------------------------------------------

func (z *fe) set(x *fe)        { *z = *x }
func (z *fe) setZero()         { *z = fe{} }
func (z *fe) setOne()          { *z = ctx.one }
func (z *fe) isZero() bool     { return *z == fe{} }
func (z *fe) isOne() bool      { return *z == ctx.one }
func (z *fe) equal(x *fe) bool { return *z == *x }

func (z *fe) add(x, y *fe) { feAdd(z, x, y) }
func (z *fe) dbl(x *fe)    { feDouble(z, x) }
func (z *fe) sub(x, y *fe) { feSub(z, x, y) }
func (z *fe) neg(x *fe)    { feNeg(z, x) }
func (z *fe) mul(x, y *fe) { feMul(z, x, y) }
func (z *fe) sqr(x *fe)    { feSqr(z, x) }

// exp sets z = x^e for a plain (non-Montgomery) exponent e, walking its
// 96 fixed 4-bit windows from the top: four squarings and at most one
// multiplication by a table entry x¹…x¹⁵ per window. The table index
// and the zero-window skip depend on e, which is fine here and only
// here: every caller passes a fixed public exponent (those in ctx, and
// (p−1)/3 once at init). Secret scalars never come this way (ROADMAP
// item 7).
func (z *fe) exp(x *fe, e *fe) {
	var table [16]fe
	table[0], table[1] = ctx.one, *x
	for i := 2; i < len(table); i++ {
		feMul(&table[i], &table[i-1], x)
	}
	acc := table[e[feLimbs-1]>>60]
	for w := 16*feLimbs - 2; w >= 0; w-- {
		feSqr(&acc, &acc)
		feSqr(&acc, &acc)
		feSqr(&acc, &acc)
		feSqr(&acc, &acc)
		if d := e[w/16] >> (4 * uint(w%16)) & 15; d != 0 {
			feMul(&acc, &acc, &table[d])
		}
	}
	*z = acc
}

// inv sets z = x⁻¹ with ff's fixed-iteration binary-GCD inverse
// (Mont.Inv); panics on zero.
func (z *fe) inv(x *fe) {
	if x.isZero() {
		panic("bls381: inverse of zero")
	}
	ctx.mont.Inv(z[:], x[:])
}

// fromBig loads a (not necessarily reduced) big.Int into Montgomery form.
func (z *fe) fromBig(x *big.Int) {
	v := x
	if v.Sign() < 0 || v.Cmp(ctx.p) >= 0 {
		v = new(big.Int).Mod(x, ctx.p)
	}
	*z = feLimbsOf(v)
	feMul(z, z, &ctx.r2)
}

// sqrt sets z = √x for p ≡ 3 (mod 4) and reports success; on failure z
// is unspecified.
func (z *fe) sqrt(x *fe) bool {
	var c, t fe
	c.exp(x, &ctx.sqrtExp)
	t.sqr(&c)
	if !t.equal(x) {
		return false
	}
	z.set(&c)
	return true
}

// plain leaves Montgomery form: one product by the integer 1 is
// z·R·1·R⁻¹, fully reduced like every kernel result.
func (z *fe) plain() (t fe) {
	feMul(&t, z, &fe{1})
	return t
}

// sgn0 is the RFC 9380 sign of an Fp element: its parity as a plain
// integer.
func (z *fe) sgn0() uint64 { return z.plain()[0] & 1 }

// bytes appends the 48-byte big-endian encoding of z to dst.
func (z *fe) bytes(dst []byte) []byte {
	t := z.plain()
	var buf [feByteLen]byte
	for i := range t {
		binary.BigEndian.PutUint64(buf[feByteLen-8*(i+1):], t[i])
	}
	return append(dst, buf[:]...)
}

// setBytes loads 48 big-endian bytes as plain limbs, no reduction.
func (z *fe) setBytes(b []byte) {
	for i := range z {
		z[i] = binary.BigEndian.Uint64(b[feByteLen-8*(i+1):])
	}
}

// feFromBytes parses a canonical 48-byte big-endian Fp element,
// rejecting values ≥ p.
func feFromBytes(b []byte) (fe, bool) {
	var z fe
	if len(b) != feByteLen {
		return z, false
	}
	z.setBytes(b)
	if !feLess(&z, &feModulus) {
		return fe{}, false
	}
	feMul(&z, &z, &ctx.r2)
	return z, true
}
