package ff

import "testing"

// TestMontZeroAlloc is the field row of the zero-allocation contract
// (docs/PERFORMANCE.md §3): Mul, Sqr and Inv on Montgomery limbs run
// on stack accumulators only, at every limb count.
func TestMontZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, f := range montFields(t) {
		m := f.Mont()
		a, b, r := m.NewElem(), m.NewElem(), m.NewElem()
		m.ToMont(a, randFieldElem(t, f))
		m.ToMont(b, randFieldElem(t, f))
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"Mul", func() { m.Mul(r, a, b) }},
			{"Sqr", func() { m.Sqr(r, a) }},
			{"Inv", func() { m.Inv(r, a) }},
		} {
			if n := testing.AllocsPerRun(10, op.run); n != 0 {
				t.Errorf("|p|=%d: Mont.%s allocates %v times per call, contract is 0", f.P().BitLen(), op.name, n)
			}
		}
	}
}
