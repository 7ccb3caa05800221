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
// Like the rest of the package it is NOT constant time. Mul, Add, Sub,
// Double and Neg run straight-line at the generated kernel widths
// (mont_kernel.go, and mont_amd64.s for the 8-limb Mul on CPUs with
// MULX and ADX), reducing by selects and masks; at every other width
// their loop forms branch on a carry, a borrow, a limb comparison or
// x = 0. Exp and Inv skip zero exponent digits (see docs/FIELD.md and
// the README threat model).
type Mont struct {
	n   int      // limb count
	p   []uint64 // modulus, little-endian limbs
	n0  uint64   // -p⁻¹ mod 2^64 (the REDC constant)
	one MontElem // R mod p, the Montgomery form of 1
	r2  []uint64 // R² mod p, the to-Montgomery conversion factor
	pm2 *big.Int // p-2, the Fermat inversion exponent

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
		n:   n,
		p:   make([]uint64, n),
		pm2: new(big.Int).Sub(p, big2),
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

	// R mod p and R² mod p via big.Int, once at construction.
	r := new(big.Int).Lsh(big1, uint(64*n))
	m.one = make(MontElem, n)
	limbsFromBig(m.one, new(big.Int).Mod(r, p))
	m.r2 = make([]uint64, n)
	limbsFromBig(m.r2, new(big.Int).Mod(new(big.Int).Mul(r, r), p))
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

// geqP reports whether x >= p.
func (m *Mont) geqP(x []uint64) bool {
	for i := m.n - 1; i >= 0; i-- {
		if x[i] != m.p[i] {
			return x[i] > m.p[i]
		}
	}
	return true
}

// subP sets dst = x - p (caller guarantees x >= p, possibly with an
// implicit carry word that the final borrow cancels).
func (m *Mont) subP(dst, x []uint64) {
	var borrow uint64
	for i := 0; i < m.n; i++ {
		dst[i], borrow = bits.Sub64(x[i], m.p[i], borrow)
	}
}

// addLoop is Add at a loop width: one conditional subtraction of p.
func (m *Mont) addLoop(dst, x, y MontElem) {
	var carry uint64
	for i := 0; i < m.n; i++ {
		dst[i], carry = bits.Add64(x[i], y[i], carry)
	}
	if carry != 0 || m.geqP(dst) {
		m.subP(dst, dst)
	}
}

// Double sets dst = 2x mod p.
func (m *Mont) Double(dst, x MontElem) { m.Add(dst, x, x) }

// subLoop is Sub at a loop width: one conditional add-back of p.
func (m *Mont) subLoop(dst, x, y MontElem) {
	var borrow uint64
	for i := 0; i < m.n; i++ {
		dst[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	if borrow != 0 {
		var carry uint64
		for i := 0; i < m.n; i++ {
			dst[i], carry = bits.Add64(dst[i], m.p[i], carry)
		}
	}
}

// negLoop is Neg at a loop width.
func (m *Mont) negLoop(dst, x MontElem) {
	if m.IsZero(x) {
		m.SetZero(dst)
		return
	}
	var borrow uint64
	for i := 0; i < m.n; i++ {
		dst[i], borrow = bits.Sub64(m.p[i], x[i], borrow)
	}
}

// mulLoop is Mul at a loop width, and the kernels' differential oracle:
// CIOS (coarsely integrated operand scanning), the interleaved
// t ← (t + x·yᵢ + mᵢ·p)/2^64 keeping an n+2-word accumulator on the stack.
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
	if t[n] != 0 || m.geqP(t[:n]) {
		m.subP(dst, t[:n])
		return
	}
	copy(dst, t[:n])
}

// Sqr sets dst = x² (Montgomery product of x with itself).
func (m *Mont) Sqr(dst, x MontElem) { m.Mul(dst, x, x) }

// Exp sets dst = x^e mod p for a non-negative big.Int exponent, walking
// e in fixed 4-bit windows from the top digit against a stack table
// x⁰…x¹⁵: four squarings per window and one multiplication per non-zero
// digit, no heap allocation. dst may alias x. Skipping zero digits makes
// the time depend on e; the production exponents are public (Inv's p−2,
// the curve's square-root exponent (p+1)/4).
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

// Inv sets dst = x⁻¹ mod p via Fermat's little theorem (x^(p−2)),
// keeping the whole computation on limb vectors. It panics on zero,
// matching Field.Inv.
func (m *Mont) Inv(dst, x MontElem) {
	if m.IsZero(x) {
		panic("ff: inverse of zero (Montgomery backend)")
	}
	m.Exp(dst, x, m.pm2)
}

// ToMont converts a reduced big.Int in [0, p) into Montgomery form:
// REDC(x · R²) = x·R mod p.
func (m *Mont) ToMont(dst MontElem, x *big.Int) {
	limbsFromBig(dst, x)
	m.Mul(dst, dst, m.r2)
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
