package bls381

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"timedrelease/internal/backend"
)

func BenchmarkPairing(b *testing.B) {
	initCtx()
	p := randG1(b)
	q := randG2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pair(&p, &q)
	}
}

func BenchmarkPairingPrepared(b *testing.B) {
	initCtx()
	p := randG1(b)
	q := randG2(b)
	pq := prepareG2(&q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pairPrepared(&p, pq)
	}
}

// The pairing in its three parts: the G2 line schedule, the Miller
// loop over it, and the final exponentiation.
func BenchmarkPrepareG2(b *testing.B) {
	q := randG2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prepareG2(&q)
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	p, q := randG1(b), randG2(b)
	ps, qs := []*g1Affine{&p}, []*g2Prepared{prepareG2(&q)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = millerLoop(ps, qs)
	}
}

func BenchmarkFinalExp(b *testing.B) {
	p, q := randG1(b), randG2(b)
	f := millerLoop([]*g1Affine{&p}, []*g2Prepared{prepareG2(&q)})
	var out fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.finalExp(&f)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	k := randScalarT(b)
	var j g1Jac
	j.fromAffine(&ctx.g1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mulEndo(&j, k)
	}
}

func BenchmarkG2ScalarMult(b *testing.B) {
	k := randScalarT(b)
	var j g2Jac
	j.fromAffine(&ctx.g2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mulEndo(&j, k)
	}
}

// BenchmarkG1ScalarMultBase is the fixed-base table's case (ROADMAP item
// 13): the backend's ScalarMultBase against its table-free ScalarMult,
// both GLV, both ending in the affine point.
func BenchmarkG1ScalarMultBase(b *testing.B) {
	be := New()
	k := randScalarT(b)
	g := be.Generator(backend.G1)
	tbl := be.PrecomputeBase(g)
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = be.ScalarMultBase(tbl, k)
		}
	})
	b.Run("noTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = be.ScalarMult(backend.G1, k, g)
		}
	})
}

func BenchmarkG1InSubgroup(b *testing.B) {
	p := randG1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = p.inSubgroup()
	}
}

// BenchmarkFe2Sqrt cycles through 16 seeded squares, so both branches
// of the square root (the first d a square or not) are in the mean.
func BenchmarkFe2Sqrt(b *testing.B) {
	rng := mrand.New(mrand.NewSource(5))
	xs := make([]fe2, 16)
	for i := range xs {
		xs[i].fromBig(new(big.Int).Rand(rng, rP()), new(big.Int).Rand(rng, rP()))
		xs[i].sqr(&xs[i])
	}
	var z fe2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = z.sqrt(&xs[i%len(xs)])
	}
}

func BenchmarkHashToG2(b *testing.B) {
	initCtx()
	msg := []byte("2026-01-01T00:00:00Z")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hashToG2(msg, "bench-dst")
	}
}

// BenchmarkSVDW maps the two field elements of one label hash.
func BenchmarkSVDW(b *testing.B) {
	u0, u1 := hashToFieldFp2([]byte("2026-01-01T00:00:00Z"), "bench-dst")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = svdwMaps(&u0, &u1)
	}
}

func BenchmarkFeMul(b *testing.B) {
	initCtx()
	x := randFe(b)
	y := randFe(b)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMul(&z, &x, &y)
	}
}

func BenchmarkFeMulLoop(b *testing.B) {
	initCtx()
	x := randFe(b)
	y := randFe(b)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMulLoop(&z, &x, &y)
	}
}

// The additive routines run on their own output (z = op(z, y)), the way
// the tower's accumulators use them.
func BenchmarkFeAdd(b *testing.B) {
	initCtx()
	z, y := randFe(b), randFe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feAdd(&z, &z, &y)
	}
}

func BenchmarkFeSub(b *testing.B) {
	initCtx()
	z, y := randFe(b), randFe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSub(&z, &z, &y)
	}
}

func BenchmarkFeDouble(b *testing.B) {
	initCtx()
	z := randFe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feDouble(&z, &z)
	}
}

func BenchmarkFeNeg(b *testing.B) {
	initCtx()
	z := randFe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feNeg(&z, &z)
	}
}
