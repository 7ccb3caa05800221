package ff

import (
	"math/big"
	"testing"
)

// TestMULXDispatch pins the kernel choice to CPUID alone. mulxUsable is
// true exactly when leaf 7 exists and reports both BMI2 and ADX, on
// every combination of the three, whatever else EBX holds. And a host
// whose CPUID reports both runs the assembly at every width in
// montAsmWidths, so a silent fall-back to the Go kernel fails here
// instead of only showing as a slower coldstart-ss512.
func TestMULXDispatch(t *testing.T) {
	const bmi2, adx = 1 << 8, 1 << 19
	for _, maxLeaf := range []uint32{1, 6, 7, 0x20} {
		for _, hasBMI2 := range []bool{false, true} {
			for _, hasADX := range []bool{false, true} {
				for _, other := range []uint32{0, ^uint32(bmi2 | adx)} {
					ebx := other
					if hasBMI2 {
						ebx |= bmi2
					}
					if hasADX {
						ebx |= adx
					}
					want := maxLeaf >= 7 && hasBMI2 && hasADX
					if got := mulxUsable(maxLeaf, ebx); got != want {
						t.Errorf("mulxUsable(max leaf %d, EBX %#x) = %v, want %v", maxLeaf, ebx, got, want)
					}
				}
			}
		}
	}

	maxLeaf, _ := cpuid(0, 0)
	_, ebx7 := cpuid(7, 0)
	host := mulxUsable(maxLeaf, ebx7)
	t.Logf("host CPUID: max leaf %d, leaf 7 EBX %#x: MULX kernel %v", maxLeaf, ebx7, host)
	if useMULX != host {
		t.Fatalf("useMULX = %v, but this host's CPUID says %v", useMULX, host)
	}
	if !host {
		return
	}
	for _, n := range montAsmWidths {
		p := new(big.Int).Lsh(big1, uint(64*n-1))
		for p.Add(p, big1); !p.ProbablyPrime(20); p.Add(p, big2) {
		}
		f, err := NewField(p)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Mont().HasAsm() {
			t.Errorf("%d limbs: CPUID reports MULX and ADX, but Mul runs the Go kernel", n)
		}
	}
}
