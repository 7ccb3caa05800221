package bls381

import (
	"testing"
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

func BenchmarkG1ScalarMult(b *testing.B) {
	initCtx()
	k := randScalarT(b)
	var j g1Jac
	j.fromAffine(&ctx.g1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.scalarMult(&j, k)
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
