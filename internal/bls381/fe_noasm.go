//go:build !amd64

package bls381

// Off amd64 feMulGo is the only product: useMULX is false, and
// feMulMULX, there so feMul's dispatch compiles, is never called.
const useMULX = false

func feMulMULX(z, x, y, p *fe, n0 uint64) { panic("bls381: no MULX kernel on this architecture") }
