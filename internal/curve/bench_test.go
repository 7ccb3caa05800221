package curve

import (
	"math/big"
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
