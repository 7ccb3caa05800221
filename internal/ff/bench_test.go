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
			p, _ := new(big.Int).SetString(row.p, 16)
			f, err := NewField(p)
			if err != nil {
				b.Fatal(err)
			}
			m, rng := f.Mont(), rand.New(rand.NewSource(1))
			x, y := m.NewElem(), m.NewElem()
			m.ToMont(x, new(big.Int).Rand(rng, p))
			m.ToMont(y, new(big.Int).Rand(rng, p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(m, x, y)
			}
		})
	}
}

func BenchmarkMontMul(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Mul(x, x, y) })
}

func BenchmarkMontAdd(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Add(x, x, y) })
}

func BenchmarkMontSub(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Sub(x, x, y) })
}

func BenchmarkMontInv(b *testing.B) {
	benchMont(b, func(m *Mont, x, y MontElem) { m.Inv(x, y) })
}
