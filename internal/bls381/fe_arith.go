package bls381

import (
	"math/big"
	"math/bits"
)

// Dedicated 6-limb arithmetic for the 381-bit prime. The generic
// ff.Mont CIOS keeps a maxMontLimbs-sized accumulator that must be
// zeroed on every call — at 6 limbs that bookkeeping costs as much as
// the multiplication itself. These fixed-width routines are the same
// algorithms with compile-time bounds; the Fp2 differential tests pin
// them against the big.Int reference and FuzzFeArith against the
// generic backend.

// feArith holds the modulus limbs and REDC constant for the fixed
// routines; filled by initFeArith from ctx.p (no hard-coded limbs).
var feArith struct {
	p  [feLimbs]uint64
	n0 uint64 // −p⁻¹ mod 2⁶⁴
}

// Scalar copies of the modulus limbs for the unrolled ladder in
// fe_mul.go (package-level scalars load straight into registers).
var (
	feP0, feP1, feP2, feP3, feP4, feP5 uint64
	feN0                               uint64
)

func initFeArith() {
	tmp := new(big.Int).Set(ctx.p)
	mask := new(big.Int).SetUint64(^uint64(0))
	word := new(big.Int)
	for i := 0; i < feLimbs; i++ {
		feArith.p[i] = word.And(tmp, mask).Uint64()
		tmp.Rsh(tmp, 64)
	}
	if tmp.Sign() != 0 {
		panic("bls381: unexpected limb count")
	}
	// Newton iteration for p₀⁻¹ mod 2⁶⁴, five doublings of precision.
	p0 := feArith.p[0]
	inv := p0
	for i := 0; i < 5; i++ {
		inv *= 2 - p0*inv
	}
	feArith.n0 = -inv
	feP0, feP1, feP2, feP3, feP4, feP5 = feArith.p[0], feArith.p[1], feArith.p[2], feArith.p[3], feArith.p[4], feArith.p[5]
	feN0 = feArith.n0
}

func feGeqP(x *fe) bool {
	for i := feLimbs - 1; i >= 0; i-- {
		if x[i] > feArith.p[i] {
			return true
		}
		if x[i] < feArith.p[i] {
			return false
		}
	}
	return true
}

func feSubP(z, x *fe) {
	var borrow uint64
	for i := 0; i < feLimbs; i++ {
		z[i], borrow = bits.Sub64(x[i], feArith.p[i], borrow)
	}
}

func feAdd(z, x, y *fe) {
	var carry uint64
	for i := 0; i < feLimbs; i++ {
		z[i], carry = bits.Add64(x[i], y[i], carry)
	}
	if carry != 0 || feGeqP(z) {
		feSubP(z, z)
	}
}

func feDouble(z, x *fe) { feAdd(z, x, x) }

func feSub(z, x, y *fe) {
	var borrow uint64
	for i := 0; i < feLimbs; i++ {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	if borrow != 0 {
		var carry uint64
		for i := 0; i < feLimbs; i++ {
			z[i], carry = bits.Add64(z[i], feArith.p[i], carry)
		}
	}
}

func feNeg(z, x *fe) {
	if x.isZeroRaw() {
		*z = fe{}
		return
	}
	var borrow uint64
	for i := 0; i < feLimbs; i++ {
		z[i], borrow = bits.Sub64(feArith.p[i], x[i], borrow)
	}
}

func (z *fe) isZeroRaw() bool {
	var acc uint64
	for i := 0; i < feLimbs; i++ {
		acc |= z[i]
	}
	return acc == 0
}

// feMul dispatches to the unrolled ladder; z may alias x or y.
func feMul(z, x, y *fe) { feMulUnrolled(z, x, y) }

// feMulLoop is the loop-form CIOS Montgomery product, kept as the
// differential reference for the unrolled ladder
// (TestFeMulLoopMatchesUnrolled, FuzzFeArith).
func feMulLoop(z, x, y *fe) {
	var t [feLimbs + 2]uint64
	for i := 0; i < feLimbs; i++ {
		var c uint64
		yi := y[i]
		for j := 0; j < feLimbs; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			var c1, c2 uint64
			t[j], c1 = bits.Add64(t[j], lo, 0)
			t[j], c2 = bits.Add64(t[j], c, 0)
			c = hi + c1 + c2
		}
		var c1 uint64
		t[feLimbs], c1 = bits.Add64(t[feLimbs], c, 0)
		t[feLimbs+1] = c1

		w := t[0] * feArith.n0
		hi, lo := bits.Mul64(w, feArith.p[0])
		_, c1 = bits.Add64(t[0], lo, 0)
		c = hi + c1
		for j := 1; j < feLimbs; j++ {
			hi, lo := bits.Mul64(w, feArith.p[j])
			var c2, c3 uint64
			t[j-1], c2 = bits.Add64(t[j], lo, 0)
			t[j-1], c3 = bits.Add64(t[j-1], c, 0)
			c = hi + c2 + c3
		}
		t[feLimbs-1], c1 = bits.Add64(t[feLimbs], c, 0)
		t[feLimbs] = t[feLimbs+1] + c1
		t[feLimbs+1] = 0
	}
	var out fe
	copy(out[:], t[:feLimbs])
	if t[feLimbs] != 0 || feGeqP(&out) {
		feSubP(&out, &out)
	}
	*z = out
}

func feSqr(z, x *fe) { feMul(z, x, x) }
