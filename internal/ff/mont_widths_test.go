package ff_test

import (
	"testing"

	"timedrelease/internal/ff"
	"timedrelease/internal/params"
)

// TestMontKernelWidths pins the per-limb-count decision to the presets
// it was made for: Test160 (3 limbs) and SS512 (8 limbs) run generated
// kernels, SS1024 and SS1536 the loop, and only SS512's Mul has an
// assembly kernel, which it runs wherever ff.UseMULX (CPUID reports
// MULX and ADX). A preset whose modulus changes width fails here
// instead of silently losing its kernel.
func TestMontKernelWidths(t *testing.T) {
	for _, row := range []struct {
		preset string
		limbs  int
		kernel bool
		asm    bool
	}{{"Test160", 3, true, false}, {"SS512", 8, true, true}, {"SS1024", 16, false, false}, {"SS1536", 24, false, false}} {
		f, err := ff.NewField(params.MustPreset(row.preset).P)
		if err != nil {
			t.Fatal(err)
		}
		asm := row.asm && ff.UseMULX
		if m := f.Mont(); m.Limbs() != row.limbs || m.HasKernel() != row.kernel || m.HasAsm() != asm {
			t.Errorf("%s: %d limbs, kernel %v, asm %v; want %d limbs, kernel %v, asm %v",
				row.preset, m.Limbs(), m.HasKernel(), m.HasAsm(), row.limbs, row.kernel, asm)
		}
	}
}
