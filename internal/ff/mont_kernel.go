// Code generated by mont_gen_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/ff -run TestMontKernelIsGenerated -update

package ff

import "math/bits"

// Straight-line Montgomery kernels for the limb counts in
// montKernelWidths (mont_gen_test.go), and the Mont methods that pick a
// kernel or the loop form in mont.go by limb count alone; at the widths
// in montAsmWidths, Mul runs the MULX/ADX assembly in mont_amd64.s
// instead where useMULX (CPUID, read once at init) allows, and the Go
// kernel here everywhere else. p and n0 come from the context, so one
// kernel serves every odd modulus of its width.
// Operands must be < p; every result is fully reduced to [0, p), and z
// may alias x and/or y (all loads precede the stores).
//
// montMulN is word-serial (CIOS) Montgomery multiplication. Round i
// forms the n products x·yᵢ first, then folds them into the accumulator
// t as two bits.Add64 chains: the low words at limbs 0…n−1, whose carry
// joins the top high word (at most 2⁶⁴−2, so it cannot wrap), then the
// high words one limb up, whose carry is t(n+1). With m = t₀·n0, m·p is
// folded the same way, which zeroes t₀, and its high-word chain writes
// one limb down: t ← (t + x·yᵢ + m·p)/2⁶⁴.
//
// Bound: t < 2p after every round, for ANY odd p < 2^(64n). It holds
// before round 0 (t = 0), and if t ≤ 2p−1 going in, then with x ≤ p−1
// and yᵢ, m ≤ 2⁶⁴−1
//
//	t + x·yᵢ + m·p ≤ (2p−1) + (2⁶⁴−1)(p−1) + (2⁶⁴−1)p = 2⁶⁴(2p−1),
//
// so the quotient is ≤ 2p−1 again. p may fill all n words (SS512's top
// bit is set), so t needs n+1 words between rounds (t(n) ≤ 1) and the
// unshifted sum n+2: the accumulator is t0…t(n+1) and no chain drops a
// carry. One Sub64 chain of p over t0…t(n−1) that borrows from t(n), and
// a select on the final borrow, finish the reduction; the same tail
// closes montAddN, whose sum is < 2p as well (Double is Add(x, x)).
// montSubN adds back p masked by its borrow, all limbs masked before the
// add chain starts (an AND inside it would clobber the carry flag and
// the compiler would redo the chain), and montNegN masks p − x by x ≠ 0,
// so 0 maps to 0 and not to p.

// Mul sets dst = x·y·R⁻¹ mod p, the Montgomery product: for Montgomery-form
// operands, the Montgomery form of the field product. dst may alias x and/or y.
func (m *Mont) Mul(dst, x, y MontElem) {
	switch m.n {
	case 3:
		montMul3((*[3]uint64)(dst), (*[3]uint64)(x), (*[3]uint64)(y), (*[3]uint64)(m.p), m.n0)
	case 8:
		if useMULX {
			montMul8MULX((*[8]uint64)(dst), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.p), m.n0)
		} else {
			montMul8((*[8]uint64)(dst), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.p), m.n0)
		}
	default:
		m.mulLoop(dst, x, y)
	}
}

// Add sets dst = x + y mod p; dst may alias x and/or y.
func (m *Mont) Add(dst, x, y MontElem) {
	switch m.n {
	case 3:
		montAdd3((*[3]uint64)(dst), (*[3]uint64)(x), (*[3]uint64)(y), (*[3]uint64)(m.p))
	case 8:
		montAdd8((*[8]uint64)(dst), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.p))
	default:
		m.addLoop(dst, x, y)
	}
}

// Sub sets dst = x − y mod p; dst may alias x and/or y.
func (m *Mont) Sub(dst, x, y MontElem) {
	switch m.n {
	case 3:
		montSub3((*[3]uint64)(dst), (*[3]uint64)(x), (*[3]uint64)(y), (*[3]uint64)(m.p))
	case 8:
		montSub8((*[8]uint64)(dst), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.p))
	default:
		m.subLoop(dst, x, y)
	}
}

// Neg sets dst = −x mod p (0 for x = 0); dst may alias x.
func (m *Mont) Neg(dst, x MontElem) {
	switch m.n {
	case 3:
		montNeg3((*[3]uint64)(dst), (*[3]uint64)(x), (*[3]uint64)(m.p))
	case 8:
		montNeg8((*[8]uint64)(dst), (*[8]uint64)(x), (*[8]uint64)(m.p))
	default:
		m.negLoop(dst, x)
	}
}

func montMul3(z, x, y, p *[3]uint64, n0 uint64) {
	var t0, t1, t2, t3, t4, c, m uint64
	var h0, h1, h2, l0, l1, l2, s0, s1, s2 uint64
	h0, t0 = bits.Mul64(x[0], y[0])
	h1, t1 = bits.Mul64(x[1], y[0])
	h2, t2 = bits.Mul64(x[2], y[0])
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, t4 = bits.Add64(t3, h2, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	h2 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c
	h0, l0 = bits.Mul64(x[0], y[1])
	h1, l1 = bits.Mul64(x[1], y[1])
	h2, l2 = bits.Mul64(x[2], y[1])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	h2 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, t4 = bits.Add64(t3, h2, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	h2 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c
	h0, l0 = bits.Mul64(x[0], y[2])
	h1, l1 = bits.Mul64(x[1], y[2])
	h2, l2 = bits.Mul64(x[2], y[2])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	h2 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, t4 = bits.Add64(t3, h2, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	h2 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c
	s0, c = bits.Sub64(t0, p[0], 0)
	s1, c = bits.Sub64(t1, p[1], c)
	s2, c = bits.Sub64(t2, p[2], c)
	_, c = bits.Sub64(t3, 0, c)
	c = -c
	z[0] = s0 ^ c&(s0^t0)
	z[1] = s1 ^ c&(s1^t1)
	z[2] = s2 ^ c&(s2^t2)
}

func montAdd3(z, x, y, p *[3]uint64) {
	var t0, t1, t2, t3, s0, s1, s2, c uint64
	t0, c = bits.Add64(x[0], y[0], 0)
	t1, c = bits.Add64(x[1], y[1], c)
	t2, t3 = bits.Add64(x[2], y[2], c)
	s0, c = bits.Sub64(t0, p[0], 0)
	s1, c = bits.Sub64(t1, p[1], c)
	s2, c = bits.Sub64(t2, p[2], c)
	_, c = bits.Sub64(t3, 0, c)
	c = -c
	z[0] = s0 ^ c&(s0^t0)
	z[1] = s1 ^ c&(s1^t1)
	z[2] = s2 ^ c&(s2^t2)
}

func montSub3(z, x, y, p *[3]uint64) {
	var t0, t1, t2, c uint64
	t0, c = bits.Sub64(x[0], y[0], 0)
	t1, c = bits.Sub64(x[1], y[1], c)
	t2, c = bits.Sub64(x[2], y[2], c)
	m := -c
	q := [3]uint64{p[0] & m, p[1] & m, p[2] & m}
	z[0], c = bits.Add64(t0, q[0], 0)
	z[1], c = bits.Add64(t1, q[1], c)
	z[2], _ = bits.Add64(t2, q[2], c)
}

func montNeg3(z, x, p *[3]uint64) {
	var t0, t1, t2, c uint64
	m := x[0] | x[1] | x[2]
	m = -((m | -m) >> 63)
	t0, c = bits.Sub64(p[0], x[0], 0)
	t1, c = bits.Sub64(p[1], x[1], c)
	t2, _ = bits.Sub64(p[2], x[2], c)
	z[0] = t0 & m
	z[1] = t1 & m
	z[2] = t2 & m
}

func montMul8(z, x, y, p *[8]uint64, n0 uint64) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, c, m uint64
	var h0, h1, h2, h3, h4, h5, h6, h7, l0, l1, l2, l3, l4, l5, l6, l7, s0, s1, s2, s3, s4, s5, s6, s7 uint64
	h0, t0 = bits.Mul64(x[0], y[0])
	h1, t1 = bits.Mul64(x[1], y[0])
	h2, t2 = bits.Mul64(x[2], y[0])
	h3, t3 = bits.Mul64(x[3], y[0])
	h4, t4 = bits.Mul64(x[4], y[0])
	h5, t5 = bits.Mul64(x[5], y[0])
	h6, t6 = bits.Mul64(x[6], y[0])
	h7, t7 = bits.Mul64(x[7], y[0])
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[1])
	h1, l1 = bits.Mul64(x[1], y[1])
	h2, l2 = bits.Mul64(x[2], y[1])
	h3, l3 = bits.Mul64(x[3], y[1])
	h4, l4 = bits.Mul64(x[4], y[1])
	h5, l5 = bits.Mul64(x[5], y[1])
	h6, l6 = bits.Mul64(x[6], y[1])
	h7, l7 = bits.Mul64(x[7], y[1])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[2])
	h1, l1 = bits.Mul64(x[1], y[2])
	h2, l2 = bits.Mul64(x[2], y[2])
	h3, l3 = bits.Mul64(x[3], y[2])
	h4, l4 = bits.Mul64(x[4], y[2])
	h5, l5 = bits.Mul64(x[5], y[2])
	h6, l6 = bits.Mul64(x[6], y[2])
	h7, l7 = bits.Mul64(x[7], y[2])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[3])
	h1, l1 = bits.Mul64(x[1], y[3])
	h2, l2 = bits.Mul64(x[2], y[3])
	h3, l3 = bits.Mul64(x[3], y[3])
	h4, l4 = bits.Mul64(x[4], y[3])
	h5, l5 = bits.Mul64(x[5], y[3])
	h6, l6 = bits.Mul64(x[6], y[3])
	h7, l7 = bits.Mul64(x[7], y[3])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[4])
	h1, l1 = bits.Mul64(x[1], y[4])
	h2, l2 = bits.Mul64(x[2], y[4])
	h3, l3 = bits.Mul64(x[3], y[4])
	h4, l4 = bits.Mul64(x[4], y[4])
	h5, l5 = bits.Mul64(x[5], y[4])
	h6, l6 = bits.Mul64(x[6], y[4])
	h7, l7 = bits.Mul64(x[7], y[4])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[5])
	h1, l1 = bits.Mul64(x[1], y[5])
	h2, l2 = bits.Mul64(x[2], y[5])
	h3, l3 = bits.Mul64(x[3], y[5])
	h4, l4 = bits.Mul64(x[4], y[5])
	h5, l5 = bits.Mul64(x[5], y[5])
	h6, l6 = bits.Mul64(x[6], y[5])
	h7, l7 = bits.Mul64(x[7], y[5])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[6])
	h1, l1 = bits.Mul64(x[1], y[6])
	h2, l2 = bits.Mul64(x[2], y[6])
	h3, l3 = bits.Mul64(x[3], y[6])
	h4, l4 = bits.Mul64(x[4], y[6])
	h5, l5 = bits.Mul64(x[5], y[6])
	h6, l6 = bits.Mul64(x[6], y[6])
	h7, l7 = bits.Mul64(x[7], y[6])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	h0, l0 = bits.Mul64(x[0], y[7])
	h1, l1 = bits.Mul64(x[1], y[7])
	h2, l2 = bits.Mul64(x[2], y[7])
	h3, l3 = bits.Mul64(x[3], y[7])
	h4, l4 = bits.Mul64(x[4], y[7])
	h5, l5 = bits.Mul64(x[5], y[7])
	h6, l6 = bits.Mul64(x[6], y[7])
	h7, l7 = bits.Mul64(x[7], y[7])
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, c = bits.Add64(t4, h3, c)
	t5, c = bits.Add64(t5, h4, c)
	t6, c = bits.Add64(t6, h5, c)
	t7, c = bits.Add64(t7, h6, c)
	t8, t9 = bits.Add64(t8, h7, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p[0])
	h1, l1 = bits.Mul64(m, p[1])
	h2, l2 = bits.Mul64(m, p[2])
	h3, l3 = bits.Mul64(m, p[3])
	h4, l4 = bits.Mul64(m, p[4])
	h5, l5 = bits.Mul64(m, p[5])
	h6, l6 = bits.Mul64(m, p[6])
	h7, l7 = bits.Mul64(m, p[7])
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, l4, c)
	t5, c = bits.Add64(t5, l5, c)
	t6, c = bits.Add64(t6, l6, c)
	t7, c = bits.Add64(t7, l7, c)
	h7 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4, c = bits.Add64(t5, h4, c)
	t5, c = bits.Add64(t6, h5, c)
	t6, c = bits.Add64(t7, h6, c)
	t7, c = bits.Add64(t8, h7, c)
	t8 = t9 + c
	s0, c = bits.Sub64(t0, p[0], 0)
	s1, c = bits.Sub64(t1, p[1], c)
	s2, c = bits.Sub64(t2, p[2], c)
	s3, c = bits.Sub64(t3, p[3], c)
	s4, c = bits.Sub64(t4, p[4], c)
	s5, c = bits.Sub64(t5, p[5], c)
	s6, c = bits.Sub64(t6, p[6], c)
	s7, c = bits.Sub64(t7, p[7], c)
	_, c = bits.Sub64(t8, 0, c)
	c = -c
	z[0] = s0 ^ c&(s0^t0)
	z[1] = s1 ^ c&(s1^t1)
	z[2] = s2 ^ c&(s2^t2)
	z[3] = s3 ^ c&(s3^t3)
	z[4] = s4 ^ c&(s4^t4)
	z[5] = s5 ^ c&(s5^t5)
	z[6] = s6 ^ c&(s6^t6)
	z[7] = s7 ^ c&(s7^t7)
}

func montAdd8(z, x, y, p *[8]uint64) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, s0, s1, s2, s3, s4, s5, s6, s7, c uint64
	t0, c = bits.Add64(x[0], y[0], 0)
	t1, c = bits.Add64(x[1], y[1], c)
	t2, c = bits.Add64(x[2], y[2], c)
	t3, c = bits.Add64(x[3], y[3], c)
	t4, c = bits.Add64(x[4], y[4], c)
	t5, c = bits.Add64(x[5], y[5], c)
	t6, c = bits.Add64(x[6], y[6], c)
	t7, t8 = bits.Add64(x[7], y[7], c)
	s0, c = bits.Sub64(t0, p[0], 0)
	s1, c = bits.Sub64(t1, p[1], c)
	s2, c = bits.Sub64(t2, p[2], c)
	s3, c = bits.Sub64(t3, p[3], c)
	s4, c = bits.Sub64(t4, p[4], c)
	s5, c = bits.Sub64(t5, p[5], c)
	s6, c = bits.Sub64(t6, p[6], c)
	s7, c = bits.Sub64(t7, p[7], c)
	_, c = bits.Sub64(t8, 0, c)
	c = -c
	z[0] = s0 ^ c&(s0^t0)
	z[1] = s1 ^ c&(s1^t1)
	z[2] = s2 ^ c&(s2^t2)
	z[3] = s3 ^ c&(s3^t3)
	z[4] = s4 ^ c&(s4^t4)
	z[5] = s5 ^ c&(s5^t5)
	z[6] = s6 ^ c&(s6^t6)
	z[7] = s7 ^ c&(s7^t7)
}

func montSub8(z, x, y, p *[8]uint64) {
	var t0, t1, t2, t3, t4, t5, t6, t7, c uint64
	t0, c = bits.Sub64(x[0], y[0], 0)
	t1, c = bits.Sub64(x[1], y[1], c)
	t2, c = bits.Sub64(x[2], y[2], c)
	t3, c = bits.Sub64(x[3], y[3], c)
	t4, c = bits.Sub64(x[4], y[4], c)
	t5, c = bits.Sub64(x[5], y[5], c)
	t6, c = bits.Sub64(x[6], y[6], c)
	t7, c = bits.Sub64(x[7], y[7], c)
	m := -c
	q := [8]uint64{p[0] & m, p[1] & m, p[2] & m, p[3] & m, p[4] & m, p[5] & m, p[6] & m, p[7] & m}
	z[0], c = bits.Add64(t0, q[0], 0)
	z[1], c = bits.Add64(t1, q[1], c)
	z[2], c = bits.Add64(t2, q[2], c)
	z[3], c = bits.Add64(t3, q[3], c)
	z[4], c = bits.Add64(t4, q[4], c)
	z[5], c = bits.Add64(t5, q[5], c)
	z[6], c = bits.Add64(t6, q[6], c)
	z[7], _ = bits.Add64(t7, q[7], c)
}

func montNeg8(z, x, p *[8]uint64) {
	var t0, t1, t2, t3, t4, t5, t6, t7, c uint64
	m := x[0] | x[1] | x[2] | x[3] | x[4] | x[5] | x[6] | x[7]
	m = -((m | -m) >> 63)
	t0, c = bits.Sub64(p[0], x[0], 0)
	t1, c = bits.Sub64(p[1], x[1], c)
	t2, c = bits.Sub64(p[2], x[2], c)
	t3, c = bits.Sub64(p[3], x[3], c)
	t4, c = bits.Sub64(p[4], x[4], c)
	t5, c = bits.Sub64(p[5], x[5], c)
	t6, c = bits.Sub64(p[6], x[6], c)
	t7, _ = bits.Sub64(p[7], x[7], c)
	z[0] = t0 & m
	z[1] = t1 & m
	z[2] = t2 & m
	z[3] = t3 & m
	z[4] = t4 & m
	z[5] = t5 & m
	z[6] = t6 & m
	z[7] = t7 & m
}
