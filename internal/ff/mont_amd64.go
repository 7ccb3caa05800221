package ff

// useMULX is set once, at init, from CPUID alone: Mul runs the
// assembly kernels in mont_amd64.s (montAsmWidths in mont_gen_test.go)
// when the CPU has MULX and ADCX/ADOX, and the generated Go kernels
// otherwise.
var useMULX = func() bool {
	maxLeaf, _ := cpuid(0, 0)
	_, ebx7 := cpuid(7, 0)
	return mulxUsable(maxLeaf, ebx7)
}()

// mulxUsable reports whether a CPU whose highest basic CPUID leaf is
// maxLeaf and whose leaf 7 (subleaf 0) EBX is ebx7 has BMI2 (bit 8,
// MULX) and ADX (bit 19, ADCX/ADOX). ebx7 is ignored below leaf 7,
// where it is not leaf 7's.
func mulxUsable(maxLeaf, ebx7 uint32) bool {
	const bmi2, adx = 1 << 8, 1 << 19
	return maxLeaf >= 7 && ebx7&bmi2 != 0 && ebx7&adx != 0
}

func cpuid(leaf, sub uint32) (eax, ebx uint32)

//go:noescape
func montMul8MULX(z, x, y, p *[8]uint64, n0 uint64)
