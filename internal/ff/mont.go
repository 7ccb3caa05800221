package ff

import (
	"math/big"
	"math/bits"
	"sync"
)

// maxMontLimbs bounds the modulus size the fixed-limb layer accepts
// (32 × 64 = 2048 bits, comfortably above the largest preset); it sizes
// the stack buffers of Mul, Exp and AppendMontBytes. NewField refuses
// anything wider.
const maxMontLimbs = 32

// HasMULX reports whether this CPU runs the MULX/ADX assembly kernels:
// the verdict useMULX takes from CPUID once, at init, and false off
// amd64. bls381's feMul dispatches on it too, so CPUID is read in one
// place.
func HasMULX() bool { return useMULX }

// MontElem is a field element as a little-endian vector of 64-bit limbs
// in the Montgomery domain: the element x is stored as x·R mod p with
// R = 2^(64·n). Values are always fully reduced into [0, p). Elements
// are only meaningful relative to the *Mont context that created them.
type MontElem []uint64

// Mont is the fixed-width-limb Montgomery arithmetic context for F_p,
// the one production representation of F_p: curve points hold MontElem
// coordinates at rest, and the group law, the ladders, the Miller loops
// and the final exponentiation run on them. Integers enter through
// ToMont and leave through Field.AppendMontBytes.
//
// A Mont context is immutable after construction and safe for
// concurrent use; per-call scratch lives on the callers' stacks.
// Mul, Add, Sub, Double and Neg reduce by selects and masks at every
// width: straight-line at the generated kernel widths (mont_kernel.go,
// and mont_amd64.s for the 8-limb Mul on CPUs with MULX and ADX),
// through normalize at the others. Inv runs a fixed count of binary-GCD
// iterations with mask-selected steps (bingcd.go). Exp skips zero
// digits of its public exponent, and Legendre stops when its GCD does
// (see docs/FIELD.md and the README threat model).
type Mont struct {
	n   int      // limb count
	p   []uint64 // modulus, little-endian limbs
	n0  uint64   // -p⁻¹ mod 2^64 (the REDC constant)
	one MontElem // R mod p, the Montgomery form of 1
	r2  []uint64 // R² mod p, the to-Montgomery conversion factor

	invIters int      // Inv's fixed outer-iteration count (bingcd.go)
	invFix   []uint64 // Inv's correction 2^(64·⌈invIters/2⌉ − 31·invIters)·R³ mod p

	// arenas recycles scratch arenas (arena.go) across hot-path calls;
	// the pool is safe for concurrent use, so a Mont context stays
	// shareable between goroutines.
	arenas sync.Pool
}

// newMont builds the Montgomery context for the modulus p, which
// NewField has checked to be odd and at most maxMontLimbs wide.
func newMont(p *big.Int) *Mont {
	n := (p.BitLen() + 63) / 64
	m := &Mont{
		n: n,
		p: make([]uint64, n),
	}
	limbsFromBig(m.p, p)

	// n0 = -p⁻¹ mod 2^64 by Newton iteration: x ← x(2 − p₀x) doubles
	// the number of correct low bits each round; x = p₀ starts with 3.
	p0 := m.p[0]
	inv := p0
	for i := 0; i < 5; i++ {
		inv *= 2 - p0*inv
	}
	m.n0 = -inv

	// R and R² mod p via big.Int, once at construction.
	r := new(big.Int).Lsh(big1, uint(64*n))
	m.one = make(MontElem, n)
	limbsFromBig(m.one, new(big.Int).Mod(r, p))
	m.r2 = make([]uint64, n)
	limbsFromBig(m.r2, new(big.Int).Mod(new(big.Int).Mul(r, r), p))

	// Inv's iterations: the binary GCD converges within 2|p| − 1 steps,
	// approximations included (Pornin's bound). Its correction: the steps
	// scale v by 2^(−31·iters), each of the ⌈iters/2⌉ reductions in
	// gcdUpdateUV by 2^−64, and input and output are Montgomery forms.
	m.invIters = (2*p.BitLen() + invSteps - 2) / invSteps
	fix := new(big.Int).Lsh(big1, uint(64*((m.invIters+1)/2)-invSteps*m.invIters+3*64*n))
	m.invFix = make([]uint64, n)
	limbsFromBig(m.invFix, fix.Mod(fix, p))
	m.arenas.New = func() any { return &Arena{m: m} }
	return m
}

// Mont returns the field's Montgomery limb context; it is never nil.
func (f *Field) Mont() *Mont { return f.mont }

// Limbs returns the limb count of elements of this context.
func (m *Mont) Limbs() int { return m.n }

// NewElem returns a fresh zero element.
func (m *Mont) NewElem() MontElem { return make(MontElem, m.n) }

// Set copies src into dst.
func (m *Mont) Set(dst, src MontElem) { copy(dst, src) }

// SetZero sets dst to 0.
func (m *Mont) SetZero(dst MontElem) {
	for i := range dst {
		dst[i] = 0
	}
}

// SetOne sets dst to the Montgomery form of 1 (R mod p).
func (m *Mont) SetOne(dst MontElem) { copy(dst, m.one) }

// IsZero reports whether x == 0.
func (m *Mont) IsZero(x MontElem) bool {
	var acc uint64
	for _, w := range x {
		acc |= w
	}
	return acc == 0
}

// IsOne reports whether x == 1 (i.e. equals R mod p).
func (m *Mont) IsOne(x MontElem) bool { return m.Equal(x, m.one) }

// Equal reports whether x == y. Montgomery form is canonical (both
// sides reduced into [0, p)), so limb equality is element equality.
func (m *Mont) Equal(x, y MontElem) bool {
	var acc uint64
	for i := range x {
		acc |= x[i] ^ y[i]
	}
	return acc == 0
}

// normalize brings x + 2^(64n)·top (top −1, 0 or 1 modulo 2^64), in
// (−p, 2p), into [0, p) with masks: add p if negative, else subtract it
// and add it back if that went below zero.
func (m *Mont) normalize(x []uint64, top uint64) {
	neg := uint64(int64(top) >> 63)
	c := ^neg & 1 // −p as 2^(64n) − p: the complement plus one
	for i, p := range m.p {
		x[i], c = bits.Add64(x[i], p^^neg, c)
	}
	back := uint64(int64(top+c-^neg&1) >> 63)
	c = 0
	for i, p := range m.p {
		x[i], c = bits.Add64(x[i], p&back, c)
	}
}

// addLoop is Add at a loop width: the sum with its carry, normalized.
func (m *Mont) addLoop(dst, x, y MontElem) {
	var carry uint64
	for i := 0; i < m.n; i++ {
		dst[i], carry = bits.Add64(x[i], y[i], carry)
	}
	m.normalize(dst, carry)
}

// Double sets dst = 2x mod p.
func (m *Mont) Double(dst, x MontElem) { m.Add(dst, x, x) }

// subLoop is Sub at a loop width: the difference with its borrow,
// normalized.
func (m *Mont) subLoop(dst, x, y MontElem) {
	var borrow uint64
	for i := 0; i < m.n; i++ {
		dst[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	m.normalize(dst, -borrow)
}

// negLoop is Neg at a loop width: 0 − x.
func (m *Mont) negLoop(dst, x MontElem) {
	var zero [maxMontLimbs]uint64
	m.subLoop(dst, zero[:m.n], x)
}

// mulLoop is Mul at a loop width, and the kernels' differential oracle:
// CIOS (coarsely integrated operand scanning), the interleaved
// t ← (t + x·yᵢ + mᵢ·p)/2^64 keeping an n+2-word accumulator on the
// stack, below 2p at the end, then normalized.
func (m *Mont) mulLoop(dst, x, y MontElem) {
	var t [maxMontLimbs + 2]uint64
	n := m.n
	for i := 0; i < n; i++ {
		// t += x · y[i]
		var c uint64
		yi := y[i]
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			var c1, c2 uint64
			t[j], c1 = bits.Add64(t[j], lo, 0)
			t[j], c2 = bits.Add64(t[j], c, 0)
			c = hi + c1 + c2 // cannot overflow: hi <= 2^64-2
		}
		var c1 uint64
		t[n], c1 = bits.Add64(t[n], c, 0)
		t[n+1] = c1

		// t ← (t + w·p) / 2^64 with w chosen so the low word cancels.
		w := t[0] * m.n0
		hi, lo := bits.Mul64(w, m.p[0])
		_, c1 = bits.Add64(t[0], lo, 0)
		c = hi + c1
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul64(w, m.p[j])
			var c2, c3 uint64
			t[j-1], c2 = bits.Add64(t[j], lo, 0)
			t[j-1], c3 = bits.Add64(t[j-1], c, 0)
			c = hi + c2 + c3
		}
		t[n-1], c1 = bits.Add64(t[n], c, 0)
		t[n] = t[n+1] + c1
		t[n+1] = 0
	}
	m.normalize(t[:n], t[n])
	copy(dst, t[:n])
}

// Sqr sets dst = x² (Montgomery product of x with itself).
func (m *Mont) Sqr(dst, x MontElem) { m.Mul(dst, x, x) }

// Exp sets dst = x^e mod p for a non-negative big.Int exponent, walking
// e in fixed 4-bit windows from the top digit against a stack table
// x⁰…x¹⁵: four squarings per window and one multiplication per non-zero
// digit, no heap allocation. dst may alias x. Skipping zero digits makes
// the time depend on e; the production exponent is public (the curve's
// square-root exponent (p+1)/4).
func (m *Mont) Exp(dst, x MontElem, e *big.Int) {
	if e.Sign() < 0 {
		panic("ff: negative exponent in Montgomery Exp")
	}
	n := m.n
	var tbl [16][maxMontLimbs]uint64
	copy(tbl[0][:], m.one)
	copy(tbl[1][:], x)
	for i := 2; i < len(tbl); i++ {
		m.Mul(tbl[i][:n], tbl[i-1][:n], tbl[1][:n])
	}
	digit := func(w int) uint { return e.Bit(4*w+3)<<3 | e.Bit(4*w+2)<<2 | e.Bit(4*w+1)<<1 | e.Bit(4*w) }
	top := (e.BitLen()+3)/4 - 1
	acc := tbl[0]
	if top >= 0 {
		acc = tbl[digit(top)]
	}
	a := MontElem(acc[:n])
	for w := top - 1; w >= 0; w-- {
		m.Sqr(a, a)
		m.Sqr(a, a)
		m.Sqr(a, a)
		m.Sqr(a, a)
		if d := digit(w); d != 0 {
			m.Mul(a, a, tbl[d][:n])
		}
	}
	copy(dst, a)
}

// ToMont converts a reduced big.Int in [0, p) into Montgomery form:
// REDC(x · R²) = x·R mod p.
func (m *Mont) ToMont(dst MontElem, x *big.Int) {
	limbsFromBig(dst, x)
	m.Mul(dst, dst, m.r2)
}

// SetWideBytes sets dst to the Montgomery form of the big-endian b mod
// p, for b of at most 16·n bytes (a hash output with bits to spare).
// With b = hi·R + lo, that is REDC(lo·R²) + REDC(REDC(hi·R²)·R²); a
// product of an operand below R by a reduced one stays below 2p.
func (m *Mont) SetWideBytes(dst MontElem, b []byte) {
	n := m.n
	if len(b) > 16*n {
		panic("ff: SetWideBytes input wider than two elements")
	}
	var w [2 * maxMontLimbs]uint64
	for k := range b {
		w[k/8] |= uint64(b[len(b)-1-k]) << (8 * (k % 8))
	}
	hi := w[n : 2*n]
	m.Mul(hi, hi, m.r2)
	m.Mul(hi, hi, m.r2)
	m.Mul(dst, w[:n], m.r2)
	m.Add(dst, dst, hi)
}

// AppendMontBytes appends Bytes of the element whose Montgomery form is
// x — the fixed-width big-endian encoding — converting out of the
// domain on the stack, without a big.Int. It is the one way out of the
// domain: REDC(x·1) = x·R⁻¹ mod p undoes the shift.
func (f *Field) AppendMontBytes(dst []byte, x MontElem) []byte {
	m := f.mont
	var plain, lit [maxMontLimbs]uint64
	lit[0] = 1
	m.Mul(plain[:m.n], x, lit[:m.n])
	for i := f.byteLen - 1; i >= 0; i-- {
		dst = append(dst, byte(plain[i/8]>>(8*(i%8))))
	}
	return dst
}

// limbsFromBig fills dst with the little-endian 64-bit limbs of the
// non-negative x (which must fit; callers pass reduced values). It
// handles both 64- and 32-bit big.Word sizes.
func limbsFromBig(dst []uint64, x *big.Int) {
	words := x.Bits()
	if bits.UintSize == 64 {
		for i := range dst {
			if i < len(words) {
				dst[i] = uint64(words[i])
			} else {
				dst[i] = 0
			}
		}
		return
	}
	for i := range dst {
		var lo, hi uint64
		if 2*i < len(words) {
			lo = uint64(words[2*i])
		}
		if 2*i+1 < len(words) {
			hi = uint64(words[2*i+1])
		}
		dst[i] = lo | hi<<32
	}
}
