package ff

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"slices"
	"testing"
)

// Oracles and pins for the generated kernels in mont_kernel.go. As in
// bls381's fe_test.go, everything here works on RAW limbs: a kernel does
// not know what Montgomery form means, it adds and subtracts residues
// and maps (x, y) to x·y·R⁻¹, so the edge cases are edge cases of the
// limbs themselves.

// HasKernel reports whether m runs on a generated kernel: the hook the
// external TestMontKernelWidths reads, since package ff_test cannot see
// montKernelWidths.
func (m *Mont) HasKernel() bool { return slices.Contains(montKernelWidths, m.n) }

// HasAsm reports whether m's Mul runs an assembly kernel: its width is
// in montAsmWidths and the CPU passed the check in mont_amd64.go.
func (m *Mont) HasAsm() bool { return useMULX && slices.Contains(montAsmWidths, m.n) }

// mulGo is Mul on the generated Go kernels alone, never the assembly:
// the reference the MULX kernel is held to.
func (m *Mont) mulGo(z, x, y MontElem) {
	switch m.n {
	case 3:
		montMul3((*[3]uint64)(z), (*[3]uint64)(x), (*[3]uint64)(y), (*[3]uint64)(m.p), m.n0)
	case 8:
		montMul8((*[8]uint64)(z), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.p), m.n0)
	default:
		m.mulLoop(z, x, y)
	}
}

// kernelFields returns one field per kernel-width modulus shape: the
// Test160 and SS512 moduli, then primes found by searching from a power
// of two (nothing typed in) — three limbs with a top limb of 1 and of
// all ones, eight limbs with a top limb of 1 and with its top bit clear.
func kernelFields(t *testing.T) []*Field {
	t.Helper()
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(big1, k) }
	search := func(from *big.Int, step int64) *big.Int {
		for !from.ProbablyPrime(20) {
			from.Add(from, big.NewInt(step))
		}
		return from
	}
	primes := []*big.Int{
		search(new(big.Int).Add(pow(128), big1), 2),
		search(new(big.Int).Sub(pow(192), big1), -2),
		search(new(big.Int).Add(pow(448), big1), 2),
		search(new(big.Int).Sub(pow(511), big1), -2),
	}
	for _, hexp := range montTestPrimes[:2] {
		p, _ := new(big.Int).SetString(hexp, 16)
		primes = append(primes, p)
	}
	var out []*Field
	for _, p := range primes {
		f, err := NewField(p)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Mont().HasKernel() {
			t.Fatalf("%d-limb test prime %x takes the loop", f.Mont().Limbs(), p)
		}
		out = append(out, f)
	}
	return out
}

// canonical reports x < p limb-wise (a borrow chain, no big.Int).
func (m *Mont) canonical(x []uint64) bool {
	var b uint64
	for i := range x {
		_, b = bits.Sub64(x[i], m.p[i], b)
	}
	return b == 1
}

// bigFromLimbs returns the integer with the little-endian limbs src.
func bigFromLimbs(src []uint64) *big.Int {
	b := make([]byte, 8*len(src))
	for i, v := range src {
		binary.BigEndian.PutUint64(b[8*(len(src)-1-i):], v)
	}
	return new(big.Int).SetBytes(b)
}

// montEdgeOperands are the raw limb patterns the carry and borrow chains
// can trip on: the ends of [0, p), the two halves (so sums land on
// exactly p−1, p and p+1), R and R² mod p, and every operand below p
// that has a limb — or a run of low limbs — of all ones.
func montEdgeOperands(m *Mont) []MontElem {
	p := bigFromLimbs(m.p)
	limbs := func(v *big.Int) MontElem {
		e := m.NewElem()
		limbsFromBig(e, v)
		return e
	}
	sub := func(k int64) *big.Int { return new(big.Int).Sub(p, big.NewInt(k)) }
	ops := []MontElem{
		limbs(big.NewInt(0)), limbs(big1), limbs(big2), limbs(sub(1)), limbs(sub(2)),
		limbs(new(big.Int).Rsh(sub(1), 1)), limbs(new(big.Int).Rsh(new(big.Int).Add(p, big1), 1)),
		slices.Clone(m.one), slices.Clone(MontElem(m.r2)),
	}
	for i := 0; i < m.n; i++ {
		single, run, under := m.NewElem(), m.NewElem(), MontElem(slices.Clone(m.p))
		single[i] = ^uint64(0)
		for j := 0; j <= i; j++ {
			run[j] = ^uint64(0)
		}
		under[i] = ^uint64(0) // p with limb i saturated and the top limb one lower
		under[m.n-1] = m.p[m.n-1] - 1
		for _, x := range []MontElem{single, run, under} {
			if m.canonical(x) {
				ops = append(ops, x)
			}
		}
	}
	return ops
}

// TestMontKernelMatchesBigAndLoop is the differential test of the
// generated kernels at both widths and six moduli: Mul, Add, Sub, Double
// and Neg against math/big on raw limbs and against the loop forms, on
// every ordered pair of edge operands, on x − x and x + (p − x), and on
// seeded random pairs; in every aliasing shape, and with every result
// canonical (limb-wise < p), not merely congruent. Mul is checked twice:
// as dispatched (the MULX assembly where HasAsm) and as the Go kernel
// called directly, so each kernel meets math/big and the loop form on
// every input.
func TestMontKernelMatchesBigAndLoop(t *testing.T) {
	for _, f := range kernelFields(t) {
		m, p := f.Mont(), f.P()
		rinv := new(big.Int).ModInverse(new(big.Int).Lsh(big1, uint(64*m.n)), p)
		mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
		mul := func(x, y *big.Int) *big.Int { v := new(big.Int).Mul(x, y); return mod(v.Mul(v, rinv)) }
		ops := []struct {
			name      string
			run, loop func(z, x, y MontElem)
			want      func(x, y *big.Int) *big.Int
		}{
			{"mul", m.Mul, m.mulLoop, mul},
			{"mul (Go kernel)", m.mulGo, m.mulLoop, mul},
			{"add", m.Add, m.addLoop, func(x, y *big.Int) *big.Int { return mod(new(big.Int).Add(x, y)) }},
			{"sub", m.Sub, m.subLoop, func(x, y *big.Int) *big.Int { return mod(new(big.Int).Sub(x, y)) }},
			{"double", func(z, x, _ MontElem) { m.Double(z, x) }, func(z, x, _ MontElem) { m.addLoop(z, x, x) },
				func(x, _ *big.Int) *big.Int { return mod(new(big.Int).Lsh(x, 1)) }},
			{"neg", func(z, x, _ MontElem) { m.Neg(z, x) }, func(z, x, _ MontElem) { m.negLoop(z, x) },
				func(x, _ *big.Int) *big.Int { return mod(new(big.Int).Neg(x)) }},
		}
		z, zl, zx, zy := m.NewElem(), m.NewElem(), m.NewElem(), m.NewElem()
		check := func(x, y MontElem) {
			t.Helper()
			xv, yv := bigFromLimbs(x), bigFromLimbs(y)
			for _, op := range ops {
				op.run(z, x, y)
				if !m.canonical(z) {
					t.Fatalf("p=%x %s(%x, %x) = %x is not reduced below p", p, op.name, xv, yv, z)
				}
				if want := op.want(xv, yv); bigFromLimbs(z).Cmp(want) != 0 {
					t.Fatalf("p=%x %s(%x, %x) = %x, want %x", p, op.name, xv, yv, z, want)
				}
				if op.loop(zl, x, y); !slices.Equal(zl, z) {
					t.Fatalf("p=%x %s(%x, %x): loop form %x, kernel %x", p, op.name, xv, yv, zl, z)
				}
				copy(zx, x)
				copy(zy, y)
				op.run(zx, zx, y)
				op.run(zy, x, zy)
				if !slices.Equal(zx, z) || !slices.Equal(zy, z) {
					t.Fatalf("p=%x %s(%x, %x): z=x gives %x, z=y gives %x, want %x", p, op.name, xv, yv, zx, zy, z)
				}
				// z = x = y: one slice in all three places, against the
				// two-operand result with equal values.
				copy(zy, x)
				op.run(z, x, zy)
				op.run(zy, zy, zy)
				if !slices.Equal(zy, z) {
					t.Fatalf("p=%x %s(%x, itself) with z=x=y gives %x, want %x", p, op.name, xv, zy, z)
				}
			}
		}

		edges := montEdgeOperands(m)
		for _, x := range edges {
			for _, y := range edges {
				check(x, y)
			}
			comp := m.NewElem() // p − x as raw limbs; p itself for x = 0 excluded
			if !m.IsZero(x) {
				limbsFromBig(comp, new(big.Int).Sub(p, bigFromLimbs(x)))
			}
			check(x, comp)
		}
		m.SetZero(z)
		if m.Neg(z, z); !m.IsZero(z) {
			t.Fatalf("p=%x: neg(0) = %x, want 0 (not p)", p, z)
		}

		n := 100000
		if testing.Short() || raceEnabled {
			n = 1000
		}
		rng := mrand.New(mrand.NewSource(int64(m.n)))
		x, y := m.NewElem(), m.NewElem()
		for i := 0; i < n; i++ {
			limbsFromBig(x, new(big.Int).Rand(rng, p))
			limbsFromBig(y, new(big.Int).Rand(rng, p))
			check(x, y)
		}
	}
}

// montExpLadder is the binary square-and-multiply Mont.Exp used to be;
// kept as the oracle for the windowed walk.
func montExpLadder(m *Mont, dst, x MontElem, e *big.Int) {
	acc := m.NewElem()
	m.SetOne(acc)
	for i := e.BitLen() - 1; i >= 0; i-- {
		m.Sqr(acc, acc)
		if e.Bit(i) == 1 {
			m.Mul(acc, acc, x)
		}
	}
	copy(dst, acc)
}

// TestMontExpMatchesLadder pins the fixed-window Exp to the binary
// ladder it replaced, at every width of montFields and kernelFields:
// bases 0, 1, p−1 and seeded random ones, exponents that exercise an
// empty walk, a single window, window boundaries, and the two production
// exponents p−2 and (p+1)/4, plus p−1; dst aliasing x too.
func TestMontExpMatchesLadder(t *testing.T) {
	for _, f := range append(montFields(t), kernelFields(t)[:4]...) {
		m, p := f.Mont(), f.P()
		exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16),
			big.NewInt(17), big.NewInt(255), big.NewInt(256), new(big.Int).Sub(p, big2), new(big.Int).Sub(p, big1),
			new(big.Int).Rsh(new(big.Int).Add(p, big1), 2)}
		var bases []MontElem
		for _, v := range []*big.Int{big.NewInt(0), big1, new(big.Int).Sub(p, big1)} {
			b := m.NewElem()
			m.ToMont(b, v)
			bases = append(bases, b)
		}
		n := 12
		if testing.Short() || raceEnabled {
			n = 3
		}
		rng := mrand.New(mrand.NewSource(int64(p.BitLen())))
		for i := 0; i < n; i++ {
			b := m.NewElem()
			m.ToMont(b, new(big.Int).Rand(rng, p))
			bases = append(bases, b)
			if i%2 == 0 { // random exponents of random length
				exps = append(exps, new(big.Int).Rand(rng, new(big.Int).Lsh(big1, uint(rng.Intn(p.BitLen()+1)))))
			}
		}
		got, want, xx := m.NewElem(), m.NewElem(), m.NewElem()
		for i, x := range bases {
			for _, e := range exps {
				m.Exp(got, x, e)
				if montExpLadder(m, want, x, e); !m.Equal(got, want) {
					t.Fatalf("p=%x base %d (%x) ^ %x: window walk %x, ladder %x", p, i, x, e, got, want)
				}
				copy(xx, x)
				if m.Exp(xx, xx, e); !m.Equal(xx, got) {
					t.Fatalf("p=%x base %d ^ %x: aliased output differs", p, i, e)
				}
			}
		}
	}
}
