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

// InvCore runs Inv's iterations without the correction and reports
// their count and the convergence point; InvIters is the count fixed at
// init and InvFix the correction, for TestInvIterationsFixed.
func (m *Mont) InvCore(v, x []uint64) (iters, live int) { return m.invCore(v, x) }

func (m *Mont) InvIters() int { return m.invIters }

func (m *Mont) InvFix() []uint64 { return m.invFix }

var BigFromLimbs = bigFromLimbs

const RaceEnabled = raceEnabled
