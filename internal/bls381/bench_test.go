package bls381

import (
	"math/big"
	mrand "math/rand"
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

// BenchmarkPairCheck is the two-arm check behind every signature
// verification: one Miller loop over both pairs, one final
// exponentiation.
func BenchmarkPairCheck(b *testing.B) {
	p, q := randG1(b), randG2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = samePairing(&p, &q, &p, &q)
	}
}

// The pairing in its two parts: the Miller loop, line computation
// included, and the final exponentiation.
func BenchmarkMillerLoop(b *testing.B) {
	p, q := randG1(b), randG2(b)
	ps, qs := []*g1Affine{&p}, []*g2Affine{&q}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = millerLoop(ps, qs)
	}
}

func BenchmarkFinalExp(b *testing.B) {
	p, q := randG1(b), randG2(b)
	f := millerLoop([]*g1Affine{&p}, []*g2Affine{&q})
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

// BenchmarkFeMul times the product as dispatched, then each kernel
// called directly, so one stretch measures both (mulx only where
// useMULX).
func BenchmarkFeMul(b *testing.B) {
	initCtx()
	x := randFe(b)
	y := randFe(b)
	var z fe
	b.Run("dispatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feMul(&z, &x, &y)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feMulGo(&z, &x, &y)
		}
	})
	b.Run("mulx", func(b *testing.B) {
		if !useMULX {
			b.Skip("the CPU lacks BMI2 or ADX")
		}
		for i := 0; i < b.N; i++ {
			feMulMULX(&z, &x, &y, &feModulus, feN0)
		}
	})
}

// BenchmarkFeInv times the binary-GCD inverse beside its Fermat oracle
// x^(p−2), so one stretch gives the ratio.
func BenchmarkFeInv(b *testing.B) {
	initCtx()
	x := randFe(b)
	var z fe
	b.Run("gcd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.inv(&x)
		}
	})
	b.Run("fermat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feInvFermat(&z, &x)
		}
	})
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
