package bls381

import "math/big"

// Benchmark hook: the field internals are unexported (the only
// supported API is the backend.Backend), but benchmark/probes.go times
// the raw base-field operations (bls381.fe_mul_ns, bls381.fe_inv_us).
// This constructor hands it closures over live operands without
// widening the package surface.

// BenchFieldOps returns closures timing one base-field multiplication,
// squaring and inversion on fixed non-trivial operands. Operands stay
// in Montgomery form across calls, matching how the pairing uses the
// field.
func BenchFieldOps() (mul, sqr, inv func()) {
	initCtx()
	var a, b, r fe
	a.fromBig(new(big.Int).SetBytes([]byte("bls381 bench operand a")))
	b.fromBig(new(big.Int).SetBytes([]byte("bls381 bench operand b")))
	mul = func() { r.mul(&a, &b) }
	sqr = func() { r.sqr(&a) }
	inv = func() { r.inv(&a) }
	return mul, sqr, inv
}
