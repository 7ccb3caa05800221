package bls381

import "timedrelease/internal/ff"

// useMULX is ff's CPUID verdict, read once: feMul runs the MULX/ADX
// kernel in fe_amd64.s (printed by ff's genMontAsm) where the CPU has
// BMI2 and ADX, and the generated Go feMulGo otherwise.
var useMULX = ff.HasMULX()

//go:noescape
func feMulMULX(z, x, y, p *fe, n0 uint64)
