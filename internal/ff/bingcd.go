package ff

import "math/bits"

// The binary-GCD engine under Inv and Legendre: Pornin's optimized
// binary GCD ("Optimized Binary GCD for Modular Inversion", ePrint
// 2020/972). Each outer iteration runs gcdInner's branch-free steps on
// 64-bit approximations of a and b, then applies the resulting 2×2
// matrix to the full limbs once.

const (
	invSteps      = 31              // steps per Inv iteration: matrix entries stay within 32 bits
	legendreSteps = invSteps - 2    // Legendre reads b mod 8, exact for 29 steps
	approxLow     = 1<<invSteps - 1 // the exact low bits of an approximation
	entryBias     = 1<<31 - 1       // lifts a matrix entry into [0, 2^32) for unpacking
)

// nonZero returns all ones when w ≠ 0, else zero, without a branch.
func nonZero(w uint64) uint64 { return uint64(int64(w|-w) >> 63) }

// gcdApprox returns the approximations of a and b — the low 31 bits
// exact, the top 33 at the alignment of max(a, b) — finding the top
// limbs by a masked scan of every limb.
func gcdApprox(a, b []uint64) (xa, xb uint64) {
	if len(a) == 1 {
		return a[0], b[0]
	}
	a1, a0, b1, b0 := a[1], a[0], b[1], b[0]
	for i := 2; i < len(a); i++ {
		m := nonZero(a[i] | b[i])
		a1 ^= m & (a1 ^ a[i])
		a0 ^= m & (a0 ^ a[i-1])
		b1 ^= m & (b1 ^ b[i])
		b0 ^= m & (b0 ^ b[i-1])
	}
	return approxTop(a1, a0, b1, b0, a[0], b[0])
}

// approxTop builds the approximations from the top limb pairs a1:a0 and
// b1:b0 and the low limbs alo and blo. When both tops are zero the shift
// is 64, so values that fit in one limb come through exact.
func approxTop(a1, a0, b1, b0, alo, blo uint64) (xa, xb uint64) {
	s := uint(bits.LeadingZeros64(a1 | b1))
	xa = (a1<<s|a0>>(64-s))&^approxLow | alo&approxLow
	xb = (b1<<s|b0>>(64-s))&^approxLow | blo&approxLow
	return xa, xb
}

// gcdInner runs steps binary-GCD steps on the approximations xa and xb
// (b odd): an even a is halved; an odd a becomes |a − b|/2 and b
// becomes min(a, b). It returns the matrix mapping the starting (a, b)
// to 2^steps times the final pair, and in flips the parity of the
// Jacobi-sign changes: a swap of two values ≡ 3 (mod 4), and a halving
// against b ≡ ±3 (mod 8). Every step runs the same instructions.
//
// Each row (f, g) of the matrix is packed as f + 2^32·g, on which the
// steps' row swaps, subtractions and doublings act as on the pairs;
// after j ≤ 31 steps every entry lies in [−2^j + 1, 2^j].
func gcdInner(xa, xb uint64, steps int) (f0, g0, f1, g1 int64, flips uint64) {
	r0, r1 := uint64(1), uint64(1)<<32
	for i := 0; i < steps; i++ {
		odd := -(xa & 1)
		d, lt := bits.Sub64(xa, xb, 0)
		lt = -lt
		swap := odd & lt
		flips ^= swap & xa & xb // bit 1: both ≡ 3 (mod 4)
		xb ^= swap & (xa ^ xb)
		flips ^= xb ^ xb>>1 // bit 1: b ≡ ±3 (mod 8)
		d = (d ^ lt) - lt
		xa = (xa&^odd | d&odd) >> 1
		t := swap & (r0 ^ r1)
		r0 ^= t
		r1 ^= t
		r0 -= odd & r1
		r1 <<= 1
	}
	const bias = entryBias<<32 | entryBias
	r0, r1 = r0+bias, r1+bias
	f0, g0 = int64(r0&0xffffffff)-entryBias, int64(r0>>32)-entryBias
	f1, g1 = int64(r1&0xffffffff)-entryBias, int64(r1>>32)-entryBias
	return f0, g0, f1, g1, flips >> 1 & 1
}

// lin returns the low word and signed carry of x·f + y·g + c.
func lin(x, y uint64, f, g, c int64) (uint64, int64) {
	h1, l1 := bits.Mul64(x, uint64(f))
	h2, l2 := bits.Mul64(y, uint64(g))
	lo, c1 := bits.Add64(l1, l2, 0)
	lo, c2 := bits.Add64(lo, uint64(c), 0)
	// A negative factor read as unsigned adds the other operand·2^64.
	return lo, int64(h1-x&uint64(f>>63)) + int64(h2-y&uint64(g>>63)) + int64(c1+c2) + c>>63
}

// madd returns the low and high words of q·p + t + w.
func madd(q, p, t, w uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(q, p)
	lo, c1 := bits.Add64(lo, t, 0)
	lo, c2 := bits.Add64(lo, w, 0)
	return lo, hi + c1 + c2
}

// condNeg negates x in place when mask is all ones.
func condNeg(x []uint64, mask uint64) {
	c := mask & 1
	for i := range x {
		x[i], c = bits.Add64(x[i]^mask, 0, c)
	}
}

// gcdUpdateAB sets a ← |a·f0 + b·g0|/2^s and b ← |a·f1 + b·g1|/2^s in
// place (exact divisions, by construction) and returns the masks of the
// signs it dropped.
func gcdUpdateAB(a, b []uint64, f0, g0, f1, g1 int64, s uint) (negA, negB uint64) {
	var ta, tb, pa, pb uint64
	var ca, cb int64
	for i := range a {
		ta, ca = lin(a[i], b[i], f0, g0, ca)
		tb, cb = lin(a[i], b[i], f1, g1, cb)
		if i > 0 {
			a[i-1], b[i-1] = pa>>s|ta<<(64-s), pb>>s|tb<<(64-s)
		}
		pa, pb = ta, tb
	}
	n := len(a)
	a[n-1], b[n-1] = pa>>s|uint64(ca)<<(64-s), pb>>s|uint64(cb)<<(64-s)
	negA, negB = uint64(ca>>63), uint64(cb>>63)
	condNeg(a, negA)
	condNeg(b, negB)
	return negA, negB
}

// gcdUpdateUV sets u ← (u·f0 + v·g0)·2^−64 and v ← (u·f1 + v·g1)·2^−64
// mod p, for u, v in [0, p) and |f| + |g| ≤ 2^62: each sum gains the
// q·p that clears its low limb (a Montgomery reduction step), drops that
// limb, lands in (−p, 2p) and is normalized.
func (m *Mont) gcdUpdateUV(u, v []uint64, f0, g0, f1, g1 int64) {
	qu := (u[0]*uint64(f0) + v[0]*uint64(g0)) * m.n0
	qv := (u[0]*uint64(f1) + v[0]*uint64(g1)) * m.n0
	var tu, tv, wu, wv uint64 // limbs, and the carries of the q·p chains
	var su, sv int64          // the signed carries of the sums
	for i, p := range m.p {
		tu, su = lin(u[i], v[i], f0, g0, su)
		tv, sv = lin(u[i], v[i], f1, g1, sv)
		tu, wu = madd(qu, p, tu, wu)
		tv, wv = madd(qv, p, tv, wv)
		if i > 0 {
			u[i-1], v[i-1] = tu, tv
		}
	}
	// The top limb, and above it a word in {−1, 0, 1}: both exact
	// modulo 2^64, which the two carries' sum wraps to.
	n := m.n
	u[n-1], wu = bits.Add64(uint64(su), wu, 0)
	v[n-1], wv = bits.Add64(uint64(sv), wv, 0)
	m.normalize(u, wu+uint64(su>>63))
	m.normalize(v, wv+uint64(sv>>63))
}

// invCore runs Inv's fixed iterations on x ≠ 0, leaving in v the raw
// result m.invFix corrects. (u, v) takes the product of two
// iterations' matrices (|f| + |g| ≤ 2^62) every second iteration,
// which halves its cost. It returns the iterations run and after how
// many a was still non-zero, which the tests hold below the first.
func (m *Mont) invCore(v, x []uint64) (iters, live int) {
	n := m.n
	var a, b, u [maxMontLimbs]uint64
	copy(a[:n], x)
	copy(b[:n], m.p)
	u[0] = 1
	clear(v)
	var pf0, pg0, pf1, pg1 int64 // the even iteration's matrix
	for iters = 0; iters < m.invIters; iters++ {
		xa, xb := gcdApprox(a[:n], b[:n])
		f0, g0, f1, g1, _ := gcdInner(xa, xb, invSteps)
		negA, negB := gcdUpdateAB(a[:n], b[:n], f0, g0, f1, g1, invSteps)
		f0, g0 = (f0^int64(negA))-int64(negA), (g0^int64(negA))-int64(negA)
		f1, g1 = (f1^int64(negB))-int64(negB), (g1^int64(negB))-int64(negB)
		if iters%2 == 0 {
			pf0, pg0, pf1, pg1 = f0, g0, f1, g1
		} else {
			m.gcdUpdateUV(u[:n], v, f0*pf0+g0*pf1, f0*pg0+g0*pg1, f1*pf0+g1*pf1, f1*pg0+g1*pg1)
		}
		var acc uint64
		for _, w := range a[:n] {
			acc |= w
		}
		live += int(nonZero(acc) & 1)
	}
	if iters%2 == 1 {
		m.gcdUpdateUV(u[:n], v, pf0, pg0, pf1, pg1)
	}
	return iters, live
}

// Inv sets dst = x⁻¹ mod p; it panics on zero. Past that check neither
// its time nor its memory accesses depend on x: fixed iterations of
// mask-selected steps, then one branch-free product by the correction.
// The one input-dependent instruction, bits.LeadingZeros64, is a single
// instruction on amd64 and arm64. No heap allocation; dst may alias x.
func (m *Mont) Inv(dst, x MontElem) {
	if m.IsZero(x) {
		panic("ff: inverse of zero (Montgomery backend)")
	}
	var v [maxMontLimbs]uint64
	m.invCore(v[:m.n], x)
	m.Mul(dst, v[:m.n], m.invFix)
}

// Legendre returns the Legendre symbol of the element whose Montgomery
// form is x (x·R has x's symbol, R being an even power of 2): 1, −1, or
// 0 for zero. It runs the engine's steps in variable time — dropping
// limbs as a and b shrink, reading their top limbs directly, stopping
// once a ≤ 1 or b = 1 — so it is for public inputs, such as hash
// candidates. An a < 0 left by the approximations is read through
// (a/|b|): negating b changes nothing, negating a flips on |b| ≡ 3
// (mod 4). No heap allocation.
func (m *Mont) Legendre(x MontElem) int {
	if m.IsZero(x) {
		return 0
	}
	var a, b [maxMontLimbs]uint64
	n := m.n
	copy(a[:n], x)
	copy(b[:n], m.p)
	var flips uint64
	for {
		for n > 1 && a[n-1]|b[n-1] == 0 {
			n--
		}
		xa, xb := a[0], b[0]
		if n > 1 {
			xa, xb = approxTop(a[n-1], a[n-2], b[n-1], b[n-2], a[0], b[0])
		} else if xa <= 1 || xb == 1 { // (0/1), (1/b) and (a/1) are all 1
			break
		}
		f0, g0, f1, g1, fl := gcdInner(xa, xb, legendreSteps)
		negA, _ := gcdUpdateAB(a[:n], b[:n], f0, g0, f1, g1, legendreSteps)
		flips ^= fl ^ negA&b[0]>>1
	}
	return 1 - 2*int(flips&1)
}
