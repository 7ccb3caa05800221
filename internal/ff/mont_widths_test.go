package ff_test

import (
	"testing"

	"timedrelease/internal/ff"
	"timedrelease/internal/params"
)

// TestMontKernelWidths pins the per-limb-count decision to the presets
// it was made for: Test160 (3 limbs) and SS512 (8 limbs) run generated
// kernels, SS1024 and SS1536 the loop. A preset whose modulus changes
// width fails here instead of silently losing its kernel.
func TestMontKernelWidths(t *testing.T) {
	for _, row := range []struct {
		preset string
		limbs  int
		kernel bool
	}{{"Test160", 3, true}, {"SS512", 8, true}, {"SS1024", 16, false}, {"SS1536", 24, false}} {
		f, err := ff.NewField(params.MustPreset(row.preset).P)
		if err != nil {
			t.Fatal(err)
		}
		if m := f.Mont(); m.Limbs() != row.limbs || m.HasKernel() != row.kernel {
			t.Errorf("%s: %d limbs, kernel %v; want %d limbs, kernel %v", row.preset, m.Limbs(), m.HasKernel(), row.limbs, row.kernel)
		}
	}
}
