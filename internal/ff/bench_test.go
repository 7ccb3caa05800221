package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// benchMontFields are the three Type-1 widths the benchmarks time: the
// two kernel widths and the first loop width.
var benchMontFields = []struct{ name, p string }{
	{"Test160", montTestPrimes[0]},
	{"SS512", montTestPrimes[1]},
	{"SS1024", montTestPrimes[4]},
}

// benchMont runs op per width on two seeded Montgomery operands; the
// result is written back into x, the way accumulators use the ops.
func benchMont(b *testing.B, op func(m *Mont, x, y MontElem)) {
	for _, row := range benchMontFields {
		b.Run(row.name, func(b *testing.B) {
			m, x, y := benchOperands(b, row.p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(m, x, y)
			}
		})
	}
}

func benchOperands(b *testing.B, hex string) (m *Mont, x, y MontElem) {
	p, _ := new(big.Int).SetString(hex, 16)
	f, err := NewField(p)
	if err != nil {
		b.Fatal(err)
	}
	m, rng := f.Mont(), rand.New(rand.NewSource(1))
	x, y = m.NewElem(), m.NewElem()
	m.ToMont(x, new(big.Int).Rand(rng, p))
	m.ToMont(y, new(big.Int).Rand(rng, p))
	return m, x, y
}

// BenchmarkMontMul times Mul as dispatched at each width, then SS512's
// two kernels called directly, so one stretch measures both (mulx only
// where useMULX).
func BenchmarkMontMul(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Mul(x, x, y) })
	m, x, y := benchOperands(b, montTestPrimes[1])
	x8, y8, p8 := (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.p)
	b.Run("SS512/go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			montMul8(x8, x8, y8, p8, m.n0)
		}
	})
	b.Run("SS512/mulx", func(b *testing.B) {
		if !useMULX {
			b.Skip("the CPU lacks BMI2 or ADX")
		}
		for i := 0; i < b.N; i++ {
			montMul8MULX(x8, x8, y8, p8, m.n0)
		}
	})
}

func BenchmarkMontAdd(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Add(x, x, y) })
}

func BenchmarkMontSub(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Sub(x, x, y) })
}

// BenchmarkMontInv times, per width, the binary-GCD Inv ("gcd") beside
// its Fermat oracle x^(p−2) ("fermat"), so one stretch gives the ratio.
func BenchmarkMontInv(b *testing.B) {
	for _, row := range benchMontFields {
		m, x, y := benchOperands(b, row.p)
		pm2 := bigFromLimbs(m.p)
		pm2.Sub(pm2, big2)
		b.Run(row.name+"/gcd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Inv(x, y)
			}
		})
		b.Run(row.name+"/fermat", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Exp(x, y, pm2)
			}
		})
	}
}

// BenchmarkLegendre times, per width, the binary-GCD Legendre symbol
// ("gcd") beside the (p+1)/4 exponentiation a hash candidate paid
// before it ("exp").
func BenchmarkLegendre(b *testing.B) {
	for _, row := range benchMontFields {
		m, x, y := benchOperands(b, row.p)
		e := bigFromLimbs(m.p)
		e.Rsh(e.Add(e, big1), 2)
		b.Run(row.name+"/gcd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Legendre(y)
			}
		})
		b.Run(row.name+"/exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Exp(x, y, e)
			}
		})
	}
}
