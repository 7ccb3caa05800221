// Code generated by fe_gen_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/bls381 -run TestFeKernelIsGenerated -update

package bls381

import "math/bits"

// The six-limb base-field kernel: one Montgomery product and one of each
// additive routine, straight-line and branch-free, on the typed constants
// feP0…feP5 and feN0 (fe_arith.go). Every result is fully reduced to
// [0, p), z may alias x and/or y (all loads precede the six stores), and
// operands must themselves be < p. feMul (fe_arith.go) runs feMulGo, or
// where ff.HasMULX() allows the same rounds in MULX/ADX assembly
// (fe_amd64.s, printed by ff's genMontAsm), with bit-identical results.
//
// feMulGo is word-serial (CIOS) Montgomery multiplication. Round i forms
// the six products x·yᵢ first — MULQ clobbers the flags — then folds
// them into the accumulator t as two bits.Add64 chains the compiler
// keeps as ADC chains: the low words at limbs 0…5, the high words one
// limb up. With m = t₀·n0, m·p is folded the same way, which zeroes t₀,
// and the high-word chain writes one limb down: t ← (t + x·yᵢ + m·p)/2⁶⁴.
//
// Bound: t < 2p after every round. It holds before round 0 (t = 0), and
// if t ≤ 2p−1 going in, then with x ≤ p−1 and yᵢ, m ≤ 2⁶⁴−1
//
//	t + x·yᵢ + m·p ≤ (2p−1) + (2⁶⁴−1)(p−1) + (2⁶⁴−1)p = 2⁶⁴(2p−1),
//
// so the quotient is ≤ 2p−1 again. p's top limb is < 2⁶¹ (three spare
// bits, TestFeKernelConstants), so 2p < 2³⁸² fits six words and the
// unshifted sum 2⁶⁴(2p−1) < 2⁴⁴⁶ fits seven: the accumulator is t0…t6,
// no chain drops a carry, and t6 is zero between rounds. One Sub64 chain
// of p and a select on its final borrow finish the reduction; the same
// tail closes feAdd (feDouble is feAdd(x, x)), whose sum is < 2p as
// well. feSub adds back p masked by its borrow and feNeg masks p − x by
// x ≠ 0, so 0 maps to 0 and not to p.
func feMulGo(z, x, y *fe) {
	var t0, t1, t2, t3, t4, t5, t6, c, m uint64
	var h0, h1, h2, h3, h4, h5, l0, l1, l2, l3, l4, l5, s0, s1, s2, s3, s4, s5 uint64
	// round 0
	h0, t0 = bits.Mul64(x[0], y[0])
	h1, t1 = bits.Mul64(x[1], y[0])
	h2, t2 = bits.Mul64(x[2], y[0])
	h3, t3 = bits.Mul64(x[3], y[0])
	h4, t4 = bits.Mul64(x[4], y[0])
	h5, t5 = bits.Mul64(x[5], y[0])
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, _ = bits.Add64(t6, h5, c)
	m = t0 * feN0
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	h4, l4 = bits.Mul64(m, feP4)
	h5, l5 = bits.Mul64(m, feP5)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(t6, 0, c)
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, _ = bits.Add64(t6, h5, c)
	// round 1
	h0, l0 = bits.Mul64(x[0], y[1])
	h1, l1 = bits.Mul64(x[1], y[1])
	h2, l2 = bits.Mul64(x[2], y[1])
	h3, l3 = bits.Mul64(x[3], y[1])
	h4, l4 = bits.Mul64(x[4], y[1])
	h5, l5 = bits.Mul64(x[5], y[1])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(0, 0, c)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, _ = bits.Add64(t6, h5, c)
	m = t0 * feN0
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	h4, l4 = bits.Mul64(m, feP4)
	h5, l5 = bits.Mul64(m, feP5)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(t6, 0, c)
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, _ = bits.Add64(t6, h5, c)
	// round 2
	h0, l0 = bits.Mul64(x[0], y[2])
	h1, l1 = bits.Mul64(x[1], y[2])
	h2, l2 = bits.Mul64(x[2], y[2])
	h3, l3 = bits.Mul64(x[3], y[2])
	h4, l4 = bits.Mul64(x[4], y[2])
	h5, l5 = bits.Mul64(x[5], y[2])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(0, 0, c)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, _ = bits.Add64(t6, h5, c)
	m = t0 * feN0
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	h4, l4 = bits.Mul64(m, feP4)
	h5, l5 = bits.Mul64(m, feP5)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(t6, 0, c)
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, _ = bits.Add64(t6, h5, c)
	// round 3
	h0, l0 = bits.Mul64(x[0], y[3])
	h1, l1 = bits.Mul64(x[1], y[3])
	h2, l2 = bits.Mul64(x[2], y[3])
	h3, l3 = bits.Mul64(x[3], y[3])
	h4, l4 = bits.Mul64(x[4], y[3])
	h5, l5 = bits.Mul64(x[5], y[3])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(0, 0, c)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, _ = bits.Add64(t6, h5, c)
	m = t0 * feN0
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	h4, l4 = bits.Mul64(m, feP4)
	h5, l5 = bits.Mul64(m, feP5)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(t6, 0, c)
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, _ = bits.Add64(t6, h5, c)
	// round 4
	h0, l0 = bits.Mul64(x[0], y[4])
	h1, l1 = bits.Mul64(x[1], y[4])
	h2, l2 = bits.Mul64(x[2], y[4])
	h3, l3 = bits.Mul64(x[3], y[4])
	h4, l4 = bits.Mul64(x[4], y[4])
	h5, l5 = bits.Mul64(x[5], y[4])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(0, 0, c)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, _ = bits.Add64(t6, h5, c)
	m = t0 * feN0
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	h4, l4 = bits.Mul64(m, feP4)
	h5, l5 = bits.Mul64(m, feP5)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(t6, 0, c)
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, _ = bits.Add64(t6, h5, c)
	// round 5
	h0, l0 = bits.Mul64(x[0], y[5])
	h1, l1 = bits.Mul64(x[1], y[5])
	h2, l2 = bits.Mul64(x[2], y[5])
	h3, l3 = bits.Mul64(x[3], y[5])
	h4, l4 = bits.Mul64(x[4], y[5])
	h5, l5 = bits.Mul64(x[5], y[5])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(0, 0, c)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, _ = bits.Add64(t6, h5, c)
	m = t0 * feN0
	h0, l0 = bits.Mul64(m, feP0)
	h1, l1 = bits.Mul64(m, feP1)
	h2, l2 = bits.Mul64(m, feP2)
	h3, l3 = bits.Mul64(m, feP3)
	h4, l4 = bits.Mul64(m, feP4)
	h5, l5 = bits.Mul64(m, feP5)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, _ = bits.Add64(t6, 0, c)
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, _ = bits.Add64(t6, h5, c)
	s0, c = bits.Sub64(t0, feP0, 0)
	s1, c = bits.Sub64(t1, feP1, c)
	s2, c = bits.Sub64(t2, feP2, c)
	s3, c = bits.Sub64(t3, feP3, c)
	s4, c = bits.Sub64(t4, feP4, c)
	s5, c = bits.Sub64(t5, feP5, c)
	c = -c
	z[0] = s0 ^ c&(s0^t0)
	z[1] = s1 ^ c&(s1^t1)
	z[2] = s2 ^ c&(s2^t2)
	z[3] = s3 ^ c&(s3^t3)
	z[4] = s4 ^ c&(s4^t4)
	z[5] = s5 ^ c&(s5^t5)
}

func feAdd(z, x, y *fe) {
	var t0, t1, t2, t3, t4, t5, s0, s1, s2, s3, s4, s5, c uint64
	t0, c = bits.Add64(x[0], y[0], 0)
	t1, c = bits.Add64(x[1], y[1], c)
	t2, c = bits.Add64(x[2], y[2], c)
	t3, c = bits.Add64(x[3], y[3], c)
	t4, c = bits.Add64(x[4], y[4], c)
	t5, _ = bits.Add64(x[5], y[5], c)
	s0, c = bits.Sub64(t0, feP0, 0)
	s1, c = bits.Sub64(t1, feP1, c)
	s2, c = bits.Sub64(t2, feP2, c)
	s3, c = bits.Sub64(t3, feP3, c)
	s4, c = bits.Sub64(t4, feP4, c)
	s5, c = bits.Sub64(t5, feP5, c)
	c = -c
	z[0] = s0 ^ c&(s0^t0)
	z[1] = s1 ^ c&(s1^t1)
	z[2] = s2 ^ c&(s2^t2)
	z[3] = s3 ^ c&(s3^t3)
	z[4] = s4 ^ c&(s4^t4)
	z[5] = s5 ^ c&(s5^t5)
}

func feDouble(z, x *fe) { feAdd(z, x, x) }

func feSub(z, x, y *fe) {
	var t0, t1, t2, t3, t4, t5, c uint64
	t0, c = bits.Sub64(x[0], y[0], 0)
	t1, c = bits.Sub64(x[1], y[1], c)
	t2, c = bits.Sub64(x[2], y[2], c)
	t3, c = bits.Sub64(x[3], y[3], c)
	t4, c = bits.Sub64(x[4], y[4], c)
	t5, c = bits.Sub64(x[5], y[5], c)
	m := -c
	z[0], c = bits.Add64(t0, feP0&m, 0)
	z[1], c = bits.Add64(t1, feP1&m, c)
	z[2], c = bits.Add64(t2, feP2&m, c)
	z[3], c = bits.Add64(t3, feP3&m, c)
	z[4], c = bits.Add64(t4, feP4&m, c)
	z[5], _ = bits.Add64(t5, feP5&m, c)
}

func feNeg(z, x *fe) {
	var t0, t1, t2, t3, t4, t5, c uint64
	m := x[0] | x[1] | x[2] | x[3] | x[4] | x[5]
	m = -((m | -m) >> 63)
	t0, c = bits.Sub64(feP0, x[0], 0)
	t1, c = bits.Sub64(feP1, x[1], c)
	t2, c = bits.Sub64(feP2, x[2], c)
	t3, c = bits.Sub64(feP3, x[3], c)
	t4, c = bits.Sub64(feP4, x[4], c)
	t5, _ = bits.Sub64(feP5, x[5], c)
	z[0] = t0 & m
	z[1] = t1 & m
	z[2] = t2 & m
	z[3] = t3 & m
	z[4] = t4 & m
	z[5] = t5 & m
}
