package curve

import (
	"math/big"
	"math/rand"
	"testing"
)

// ss512 builds the SS512 row of oracleCurves with a subgroup generator.
func ss512(tb testing.TB) (*Curve, Point) {
	tb.Helper()
	row := oracleCurves[2]
	c := oracleCurve(tb, row.p, row.q)
	return c, testGen(tb, c)
}

// TestScalarMultAllocs is the Type-1 ladder's row of the zero-allocation
// contract (docs/PERFORMANCE.md §3): the window table is carved from
// the pooled arena with everything else, so a call allocates the result
// point it returns — two big.Int coordinates — and nothing per step.
func TestScalarMultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, g := ss512(t)
	run := func() { c.ScalarMult(c.H, g) }
	run() // warm the arena pool
	if n := testing.AllocsPerRun(10, run); n > 4 {
		t.Errorf("ScalarMult allocates %v times per call, the result point is 4", n)
	}
}

// sink keeps the benchmarked calls from being optimised away.
var sink Point

// BenchmarkScalarMult times the ladder at SS512 on the two scalars the
// serving path runs it on: the 160-bit subgroup order (every subgroup
// check) and the 352-bit cofactor (every HashToGroup).
func BenchmarkScalarMult(b *testing.B) {
	c, g := ss512(b)
	for _, s := range []struct {
		name string
		k    *big.Int
	}{{"q", c.Q}, {"h", c.H}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = c.ScalarMult(s.k, g)
			}
		})
	}
}

func BenchmarkHashToGroup(b *testing.B) {
	c, _ := ss512(b)
	msg := []byte("2026-01-01T00:00:00Z")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = c.HashToGroup("bench-dst", msg)
	}
}

// BenchmarkMSM times one cold-start page's worth of each batch sum at
// SS512 — 48 terms under 128-bit scalars — against the ladders it
// replaced: "sigs" is Σ eᵢ·σᵢ over subgroup points, "hashes" the whole
// hashing door (48 candidates, one sum, one cofactor ladder).
func BenchmarkMSM(b *testing.B) {
	c, g := ss512(b)
	const n = 48
	scalars, points, msgs := make([]*big.Int, n), make([]Point, n), make([][]byte, n)
	rng := rand.New(rand.NewSource(1))
	for i := range points {
		scalars[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big1, 128))
		points[i] = c.ScalarMult(big.NewInt(int64(i+2)), g)
		msgs[i] = []byte{byte(i)}
	}
	b.Run("sigs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = c.MSM(scalars, points)
		}
	})
	b.Run("sigs-ladders", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = Infinity()
			for j := range points {
				sink = c.Add(sink, c.ScalarMult(scalars[j], points[j]))
			}
		}
	})
	b.Run("hashes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = c.HashSum("bench-dst", scalars, msgs)
		}
	})
	b.Run("hashes-ladders", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = Infinity()
			for j := range msgs {
				sink = c.Add(sink, c.ScalarMult(scalars[j], c.HashToGroup("bench-dst", msgs[j])))
			}
		}
	})
}
