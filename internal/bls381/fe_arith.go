package bls381

import (
	"math/big"
	"math/bits"
)

// The modulus limbs (little-endian: feP5…feP0 are the six 16-digit
// groups of pHex, left to right) and the REDC constant −p⁻¹ mod 2⁶⁴ that
// the generated kernel in fe_mul.go is written on. They are typed
// constants so the compiler folds them into the instruction stream; the
// only limbs typed by hand in this package, so initFeArith pins them.
const (
	feP0 uint64 = 0xb9feffffffffaaab
	feP1 uint64 = 0x1eabfffeb153ffff
	feP2 uint64 = 0x6730d2a0f6b0f624
	feP3 uint64 = 0x64774b84f38512bf
	feP4 uint64 = 0x4b1ba7b6434bacd7
	feP5 uint64 = 0x1a0111ea397fe69a
	feN0 uint64 = 0x89f3fffcfffcfffd
)

// feModulus is p as plain limbs, for the comparisons outside the kernel.
var feModulus = fe{feP0, feP1, feP2, feP3, feP4, feP5}

// feLess reports a < b on plain limbs: a − b borrows.
func feLess(a, b *fe) bool {
	var borrow uint64
	for i := range a {
		_, borrow = bits.Sub64(a[i], b[i], borrow)
	}
	return borrow == 1
}

// feLimbsOf splits 0 ≤ v < 2³⁸⁴ into plain little-endian limbs.
func feLimbsOf(v *big.Int) (z fe) {
	var buf [feByteLen]byte
	v.FillBytes(buf[:])
	z.setBytes(buf[:])
	return z
}

// initFeArith checks the constants against ctx.p ("pinned, not
// trusted") and derives the two Montgomery constants R and R² mod p.
func initFeArith() {
	n0, p0 := feN0, feP0 // variables: the product wraps, a constant one does not compile
	if feLimbsOf(ctx.p) != feModulus || n0*p0+1 != 0 {
		panic("bls381: kernel constants do not match p")
	}
	r := new(big.Int).Lsh(big.NewInt(1), 64*feLimbs)
	ctx.one = feLimbsOf(new(big.Int).Mod(r, ctx.p))
	ctx.r2 = feLimbsOf(r.Mod(r.Mul(r, r), ctx.p))
}

func feSqr(z, x *fe) { feMul(z, x, x) }
