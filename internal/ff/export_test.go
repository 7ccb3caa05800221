package ff

import "testing"

// Shims for the external tests in fp2_test.go, which import the
// math/big F_{p²} oracle in internal/ref (it imports this package, so
// they cannot live in it).
var SmallPrime = testPrime

func MontFields(t *testing.T) []*Field { return montFields(t) }

func FieldsForFuzz(f *testing.F) []*Field { return fuzzSetup(f) }

// UseMULX is the CPUID verdict TestMontKernelWidths expects SS512 to
// follow.
var UseMULX = useMULX
