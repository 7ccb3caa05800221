//go:build !amd64

package ff

// useMULX is false off amd64: the generated Go kernels are the only
// ones.
const useMULX = false

// montMul8MULX exists so mont_kernel.go's dispatch compiles on every
// architecture; with useMULX false it is never called.
func montMul8MULX(z, x, y, p *[8]uint64, n0 uint64) {
	panic("ff: no MULX kernel on this architecture")
}
