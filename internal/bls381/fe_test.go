package bls381

import (
	"math/big"
	"math/bits"
	mrand "math/rand"
	"strconv"
	"testing"

	"timedrelease/internal/ff"
)

// Oracles and pins for the generated kernel in fe_mul.go. Everything
// here works on RAW limbs: the kernel does not know what Montgomery
// form means, it adds and subtracts residues and maps (x, y) to
// x·y·R⁻¹, so the edge cases are edge cases of the limbs themselves.

// feCanonical reports x < p limb-wise (a borrow chain, no big.Int).
func feCanonical(x *fe) bool { return feLess(x, &feModulus) }

// toBig returns the plain (non-Montgomery) integer value.
func (z *fe) toBig() *big.Int { return new(big.Int).SetBytes(z.bytes(nil)) }

// rawBig reads x's limbs as a plain integer, without leaving Montgomery
// form.
func rawBig(x *fe) *big.Int {
	v := new(big.Int)
	for i := feLimbs - 1; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(x[i]))
	}
	return v
}

// feMulLoop is the loop-form CIOS Montgomery product with every carry
// materialised and an eight-word accumulator — the textbook form the
// generated feMul is differentially tested against (ROADMAP item 3(c)).
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

		w := t[0] * feN0
		hi, lo := bits.Mul64(w, feModulus[0])
		_, c1 = bits.Add64(t[0], lo, 0)
		c = hi + c1
		for j := 1; j < feLimbs; j++ {
			hi, lo := bits.Mul64(w, feModulus[j])
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
	if t[feLimbs] != 0 || !feCanonical(&out) {
		var borrow uint64
		for i := range out {
			out[i], borrow = bits.Sub64(out[i], feModulus[i], borrow)
		}
	}
	*z = out
}

// feExpLadder is the binary square-and-multiply fe.exp used to be; kept
// as the oracle for the windowed walk.
func feExpLadder(x *fe, e *big.Int) fe {
	acc := ctx.one
	for i := e.BitLen() - 1; i >= 0; i-- {
		feSqr(&acc, &acc)
		if e.Bit(i) == 1 {
			feMul(&acc, &acc, x)
		}
	}
	return acc
}

// feEdgeOperands are the raw limb patterns the carry and borrow chains
// can trip on: the ends of [0, p), the two halves (so sums land on
// exactly p−1, p and p+1), the Montgomery constants, and every operand
// below p that has a limb — or a run of low limbs — of all ones.
func feEdgeOperands() []fe {
	p := ctx.p
	sub := func(k int64) *big.Int { return new(big.Int).Sub(p, big.NewInt(k)) }
	ops := []fe{
		{}, {1}, {2}, feLimbsOf(sub(1)), feLimbsOf(sub(2)),
		feLimbsOf(new(big.Int).Rsh(sub(1), 1)), feLimbsOf(new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 1)),
		ctx.one, ctx.r2,
	}
	for i := 0; i < feLimbs; i++ {
		var single, run, under fe
		single[i] = ^uint64(0)
		for j := 0; j <= i; j++ {
			run[j] = ^uint64(0)
		}
		under = feModulus // p with limb i saturated and the top limb one lower
		under[i] = ^uint64(0)
		under[feLimbs-1] = feP5 - 1
		for _, x := range []fe{single, run, under} {
			if feCanonical(&x) {
				ops = append(ops, x)
			}
		}
	}
	return ops
}

// TestFeKernelMatchesBigAndLoop is the differential test of the whole
// generated kernel: mul, add, sub, double and neg against math/big on
// raw limbs, mul also against feMulLoop, on every ordered pair of edge
// operands, on x − x and x + (p − x), and on seeded random pairs; in
// every aliasing shape, and with every result canonical (limb-wise < p),
// not merely congruent. mul is checked twice: as dispatched (the MULX
// assembly where useMULX) and as feMulGo called directly, so each
// kernel meets math/big and the loop form on every input.
func TestFeKernelMatchesBigAndLoop(t *testing.T) {
	initCtx()
	p := ctx.p
	rinv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64*feLimbs), p)
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	mul := func(x, y *big.Int) *big.Int { v := new(big.Int).Mul(x, y); return mod(v.Mul(v, rinv)) }
	ops := []struct {
		name string
		run  func(z, x, y *fe)
		want func(x, y *big.Int) *big.Int
	}{
		{"mul", feMul, mul},
		{"mul (Go kernel)", feMulGo, mul},
		{"add", feAdd, func(x, y *big.Int) *big.Int { return mod(new(big.Int).Add(x, y)) }},
		{"sub", feSub, func(x, y *big.Int) *big.Int { return mod(new(big.Int).Sub(x, y)) }},
		{"double", func(z, x, _ *fe) { feDouble(z, x) }, func(x, _ *big.Int) *big.Int { return mod(new(big.Int).Lsh(x, 1)) }},
		{"neg", func(z, x, _ *fe) { feNeg(z, x) }, func(x, _ *big.Int) *big.Int { return mod(new(big.Int).Neg(x)) }},
	}
	check := func(x, y fe) {
		t.Helper()
		xv, yv := rawBig(&x), rawBig(&y)
		for _, op := range ops {
			var z fe
			op.run(&z, &x, &y)
			if !feCanonical(&z) {
				t.Fatalf("%s(%x, %x) = %x is not reduced below p", op.name, xv, yv, rawBig(&z))
			}
			if want := op.want(xv, yv); rawBig(&z).Cmp(want) != 0 {
				t.Fatalf("%s(%x, %x) = %x, want %x", op.name, xv, yv, rawBig(&z), want)
			}
			zx, zy := x, y
			op.run(&zx, &zx, &y)
			op.run(&zy, &x, &zy)
			if zx != z || zy != z {
				t.Fatalf("%s(%x, %x): z=x gives %x, z=y gives %x, want %x", op.name, xv, yv, rawBig(&zx), rawBig(&zy), rawBig(&z))
			}
		}
		var loop, kernel, goKernel fe
		feMulLoop(&loop, &x, &y)
		feMul(&kernel, &x, &y)
		if feMulGo(&goKernel, &x, &y); loop != kernel || loop != goKernel {
			t.Fatalf("mul(%x, %x): loop form %x, dispatched %x, Go kernel %x", xv, yv, rawBig(&loop), rawBig(&kernel), rawBig(&goKernel))
		}
		// z = x = y: one pointer in all three places, against the
		// two-operand results with equal values.
		for _, op := range ops {
			var z fe
			xx := x
			op.run(&z, &x, &xx)
			op.run(&xx, &xx, &xx)
			if xx != z {
				t.Fatalf("%s(%x, itself) with z=x=y gives %x, want %x", op.name, xv, rawBig(&xx), rawBig(&z))
			}
		}
	}

	edges := feEdgeOperands()
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
		var comp fe // p − x as raw limbs, p itself for x = 0 excluded
		if x != (fe{}) {
			comp = feLimbsOf(new(big.Int).Sub(p, rawBig(&x)))
		}
		check(x, comp)
	}
	var z fe
	if feNeg(&z, &z); z != (fe{}) {
		t.Fatalf("neg(0) = %x, want 0 (not p)", rawBig(&z))
	}

	n := 100000
	if testing.Short() || raceEnabled {
		n = 1000
	}
	rng := mrand.New(mrand.NewSource(381))
	for i := 0; i < n; i++ {
		check(feLimbsOf(new(big.Int).Rand(rng, p)), feLimbsOf(new(big.Int).Rand(rng, p)))
	}
}

// TestFeMULXDispatch fails a host whose CPUID reports BMI2 and ADX (ff's
// TestMULXDispatch pins ff.HasMULX to CPUID) but whose feMul runs the Go
// kernel, so a silent fall-back fails here instead of only showing as a
// slower message-bls12381. The kernels differ in one observable way: the
// assembly reads p through its pointer, &feModulus, and feMulGo has p
// folded in as constants; with feModulus zeroed for one call, feMul
// agrees with feMulGo exactly when it ran Go.
func TestFeMULXDispatch(t *testing.T) {
	initCtx()
	if useMULX != ff.HasMULX() {
		t.Fatalf("useMULX = %v, but ff.HasMULX() = %v", useMULX, ff.HasMULX())
	}
	var want, got fe
	feMulGo(&want, &ctx.r2, &ctx.r2)
	saved := feModulus
	feModulus = fe{}
	feMul(&got, &ctx.r2, &ctx.r2)
	feModulus = saved
	if ranAsm := got != want; ranAsm != ff.HasMULX() {
		t.Fatalf("ff.HasMULX() = %v, yet feMul ran the assembly = %v", ff.HasMULX(), ranAsm)
	}
}

// TestFeKernelConstants pins the only limbs this package types by hand:
// they are the six 16-digit groups of pHex, n0·p₀ ≡ −1 (mod 2⁶⁴), and
// the top limb leaves the three spare bits the seven-word accumulator
// in fe_mul.go's header relies on.
func TestFeKernelConstants(t *testing.T) {
	for i, limb := range feModulus {
		want, err := strconv.ParseUint(pHex[16*(feLimbs-1-i):16*(feLimbs-i)], 16, 64)
		if err != nil || limb != want {
			t.Errorf("feP%d = %#x, pHex says %#x (%v)", i, limb, want, err)
		}
	}
	if n0, p0 := feN0, feP0; n0*p0 != ^uint64(0) {
		t.Errorf("feN0·feP0 = %#x, want −1 mod 2⁶⁴", n0*p0)
	}
	if feP5>>61 != 0 {
		t.Errorf("top limb %#x has fewer than three spare bits", feP5)
	}
	initCtx()
	if rawBig(&feModulus).Cmp(ctx.p) != 0 {
		t.Error("constants differ from ctx.p")
	}
}

// TestFeExpMatchesLadder pins the fixed-window fe.exp to the binary
// ladder it replaced: seeded bases plus 0, 1, p−1, and the exponents
// that exercise an empty walk, a single window, a window boundary, the
// Fermat oracle's p−2 and the production exponents.
func TestFeExpMatchesLadder(t *testing.T) {
	initCtx()
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16),
		rawBig(&fermatExp), rawBig(&ctx.sqrtExp), rawBig(&ctx.eulerExp)}
	var zero, pm1 fe
	pm1.fromBig(new(big.Int).Sub(ctx.p, big.NewInt(1)))
	bases := []fe{zero, ctx.one, pm1}
	n := 10000
	if testing.Short() || raceEnabled {
		n = 100
	}
	rng := mrand.New(mrand.NewSource(4))
	for i := 0; i < n; i++ {
		var x fe
		x.fromBig(new(big.Int).Rand(rng, ctx.p))
		bases = append(bases, x)
	}
	for i, x := range bases {
		for j, e := range exps {
			if i >= 3 && j < 5 && i%64 != 3 {
				continue // small exponents: the three special bases and a sample
			}
			el := feLimbsOf(e)
			var got fe
			got.exp(&x, &el)
			if want := feExpLadder(&x, e); got != want {
				t.Fatalf("base %d (%x) ^ %x: window walk %x, ladder %x", i, x.toBig(), e, got.toBig(), want.toBig())
			}
			xx := x
			if xx.exp(&xx, &el); xx != got {
				t.Fatalf("base %d ^ %x: aliased output differs", i, e)
			}
		}
	}
	var inv fe
	inv.inv(&pm1)
	if want := new(big.Int).ModInverse(pm1.toBig(), ctx.p); inv.toBig().Cmp(want) != 0 {
		t.Fatalf("inv(p−1) = %x, want %x", inv.toBig(), want)
	}
}

// fermatExp is p−2: x^(p−2) is the Fermat inverse, fe.inv's oracle.
var fermatExp = feLimbsOf(new(big.Int).Sub(mustBig(pHex), big.NewInt(2)))

// feInvFermat sets z = x^(p−2), the inverse fe.inv computed before the
// binary GCD.
func feInvFermat(z, x *fe) { z.exp(x, &fermatExp) }

// TestFeInvMatchesFermat pins the binary-GCD fe.inv to the Fermat
// inverse and to big.ModInverse on 1, 2, p−1, (p−1)/2, (p+1)/2, powers
// of two in steps of 7 and on both sides of every limb boundary, the
// same values as raw Montgomery limbs,
// and seeded random elements, in place and out of place; and inverting
// zero still panics.
func TestFeInvMatchesFermat(t *testing.T) {
	initCtx()
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(ctx.p, one)
	vals := []*big.Int{one, big.NewInt(2), pm1, new(big.Int).Rsh(pm1, 1), new(big.Int).Rsh(new(big.Int).Add(ctx.p, one), 1)}
	for k := 1; k < ctx.p.BitLen(); k++ {
		if k%7 == 0 || k%64 == 63 || k%64 == 0 {
			vals = append(vals, new(big.Int).Lsh(one, uint(k)))
		}
	}
	n := 5000
	if testing.Short() || raceEnabled {
		n = 500
	}
	rng := mrand.New(mrand.NewSource(8))
	for i := 0; i < n; i++ {
		vals = append(vals, new(big.Int).Add(new(big.Int).Rand(rng, pm1), one))
	}
	var xs []fe
	for _, v := range vals {
		var x fe
		x.fromBig(v)
		xs = append(xs, x, feLimbsOf(v)) // the element v, and the limbs v
	}
	for _, x := range xs {
		var got, want fe
		got.inv(&x)
		feInvFermat(&want, &x)
		if got != want {
			t.Fatalf("inv(%x) = %x, Fermat %x", x.toBig(), got.toBig(), want.toBig())
		}
		if got.toBig().Cmp(new(big.Int).ModInverse(x.toBig(), ctx.p)) != 0 {
			t.Fatalf("inv(%x) = %x is not the inverse", x.toBig(), got.toBig())
		}
		y := x
		if y.inv(&y); y != want {
			t.Fatalf("inv(%x) in place differs", x.toBig())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inv(0) did not panic")
		}
	}()
	var z, zero fe
	z.inv(&zero)
}
