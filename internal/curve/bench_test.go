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

// TestScalarMultAllocs is the Type-1 walk's row of the zero-allocation
// contract (docs/PERFORMANCE.md §3): the odd-multiples table is carved
// from the pooled arena with everything else and the digits sit on the
// stack, so a call allocates the result point it returns — two big.Int
// coordinates — and nothing per step.
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

// sink and sinkBool keep the benchmarked calls from being optimised away.
var (
	sink     Point
	sinkBool bool
)

// BenchmarkInSubgroup times the full subgroup test at SS512 — the curve
// equation, then the x-only ladder over q's 160 bits — on a member built
// in-process (no member bit) and on a random curve point outside the
// subgroup. Decoded points skip both (TestInSubgroupAllocs).
func BenchmarkInSubgroup(b *testing.B) {
	c, g := ss512(b)
	r, err := c.RandomPoint(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name string
		p    Point
	}{{"member", g}, {"non-member", r}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = c.InSubgroup(s.p)
			}
		})
	}
}

// BenchmarkScalarMult times the walk at SS512 on the two scalars the
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

// BenchmarkHashCandidate times, at SS512 on one stretch, a hash's
// try-loop ("candidate", over 64 labels: about two tries each) against
// one lift of an x that does lift ("pointFromX"); their ratio is what
// a hash pays in square-root-sized units.
func BenchmarkHashCandidate(b *testing.B) {
	c, _ := ss512(b)
	labels := make([][]byte, 64)
	xs := make([]*big.Int, len(labels))
	for i := range labels {
		labels[i] = []byte{byte(i), 'T'}
		p, _ := c.hashCandidate("bench-dst", labels[i], 0)
		xs[i], _ = c.Affine(p)
	}
	b.Run("candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = c.hashCandidate("bench-dst", labels[i%len(labels)], 0)
		}
	})
	b.Run("pointFromX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = c.pointFromX(xs[i%len(xs)], 0)
		}
	})
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
