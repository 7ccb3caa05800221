package backend_test

import (
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls381"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// TestForeignValuesPanic pins the width checks that keep each backend
// to its own limb vectors: a point of the other BLS12-381 group, a
// point or GT value of the other backend — in either direction — is a
// programming error that panics, never a result computed on limbs of
// the wrong shape.
func TestForeignValuesPanic(t *testing.T) {
	bls := bls381.New()
	g1, g2 := bls.Generator(backend.G1), bls.Generator(backend.G2)
	blsGT := bls.Pair(g1, g2)
	k := big.NewInt(5)
	mustPanic := func(t *testing.T, name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}

	t.Run("bls12381 groups", func(t *testing.T) {
		for _, c := range []struct {
			g    backend.Group
			p, q curve.Point // p is the other group's point, q one of g
		}{
			{backend.G1, g2, g1},
			{backend.G1, bls.Infinity(backend.G2), g1},
			{backend.G2, g1, g2},
			{backend.G2, bls.Infinity(backend.G1), g2},
		} {
			mustPanic(t, c.g.String()+" Add", func() { bls.Add(c.g, c.q, c.p) })
			mustPanic(t, c.g.String()+" Neg", func() { bls.Neg(c.g, c.p) })
			mustPanic(t, c.g.String()+" ScalarMult", func() { bls.ScalarMult(c.g, k, c.p) })
			mustPanic(t, c.g.String()+" Equal", func() { bls.Equal(c.g, c.q, c.p) })
			mustPanic(t, c.g.String()+" InSubgroup", func() { bls.InSubgroup(c.g, c.p) })
			mustPanic(t, c.g.String()+" AppendPoint", func() { bls.AppendPoint(nil, c.g, c.p) })
		}
		mustPanic(t, "Pair(G2, G2)", func() { bls.Pair(g2, g2) })
		mustPanic(t, "Pair(G1, G1)", func() { bls.Pair(g1, g1) })
		mustPanic(t, "SamePairing swapped", func() { bls.SamePairing(g2, g1, g1, g2) })
	})

	for _, name := range []string{"Test160", "SS512", "SS1024"} {
		sym := params.MustPreset(name).B
		p := sym.Generator(backend.G1)
		symGT := sym.Pair(p, p)
		t.Run(name+" point in bls12381", func(t *testing.T) {
			for _, g := range []backend.Group{backend.G1, backend.G2} {
				mustPanic(t, g.String()+" Add", func() { bls.Add(g, p, p) })
				mustPanic(t, g.String()+" Neg", func() { bls.Neg(g, p) })
				mustPanic(t, g.String()+" ScalarMult", func() { bls.ScalarMult(g, k, p) })
				mustPanic(t, g.String()+" InSubgroup", func() { bls.InSubgroup(g, p) })
				mustPanic(t, g.String()+" AppendPoint", func() { bls.AppendPoint(nil, g, p) })
			}
			mustPanic(t, "Pair left", func() { bls.Pair(p, g2) })
			mustPanic(t, "Pair right", func() { bls.Pair(g1, p) })
		})
		t.Run("bls12381 point in "+name, func(t *testing.T) {
			for _, q := range []curve.Point{g1, g2} {
				mustPanic(t, "Add", func() { sym.Add(backend.G1, p, q) })
				mustPanic(t, "Neg", func() { sym.Neg(backend.G1, q) })
				mustPanic(t, "ScalarMult", func() { sym.ScalarMult(backend.G1, k, q) })
				mustPanic(t, "AppendPoint", func() { sym.AppendPoint(nil, backend.G1, q) })
				mustPanic(t, "Pair left", func() { sym.Pair(q, p) })
				mustPanic(t, "Pair right", func() { sym.Pair(p, q) })
			}
		})
		t.Run("GT values across "+name+" and bls12381", func(t *testing.T) {
			for _, c := range []struct {
				b       backend.Backend
				foreign backend.GT
			}{{sym, blsGT}, {bls, symGT}} {
				own := c.b.GTOne()
				mustPanic(t, c.b.Name()+" GTEqual", func() { c.b.GTEqual(own, c.foreign) })
				mustPanic(t, c.b.Name()+" GTIsOne", func() { c.b.GTIsOne(c.foreign) })
				mustPanic(t, c.b.Name()+" GTMul", func() { c.b.GTMul(own, c.foreign) })
				mustPanic(t, c.b.Name()+" GTExpUnitary", func() { c.b.GTExpUnitary(c.foreign, k) })
				mustPanic(t, c.b.Name()+" GTBytes", func() { c.b.GTBytes(c.foreign) })
			}
		})
	}
}

// TestBoundaryAllocs pins the heap allocations of the operations every
// scheme call crosses the backend boundary through, so a change to the
// point or GT handle cannot add one. A result the caller keeps (a
// point's limbs, a GT value, an encoding) is one allocation. SS512's
// SamePairing keeps one more than BLS12-381's: the closure its
// two-factor Miller fan-out hands the worker pool (AllocsPerRun runs at
// GOMAXPROCS 1, so the pool's goroutines do not show here). A prepared
// key's PairCheck allocates nothing on either backend family.
func TestBoundaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type bounds struct{ addG2, negG1, scalarMultG1, equal, parseG2, pair, gtMul, gtBytes, samePairing, pairCheck float64 }
	for _, c := range []struct {
		name string
		b    backend.Backend
		want bounds
	}{
		{"Test160", params.MustPreset("Test160").B, bounds{1, 1, 1, 0, 3, 1, 1, 1, 1, 0}},
		{"SS512", params.MustPreset("SS512").B, bounds{1, 1, 1, 0, 3, 1, 1, 1, 1, 0}},
		{"BLS12-381", bls381.New(), bounds{1, 1, 1, 0, 3, 1, 1, 1, 0, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := c.b
			k := big.NewInt(0xC0FFEE)
			g1, g2 := b.Generator(backend.G1), b.Generator(backend.G2)
			p1, p2 := b.ScalarMult(backend.G1, k, g1), b.ScalarMult(backend.G2, k, g2)
			enc := b.AppendPoint(nil, backend.G2, p2)
			gt := b.Pair(p1, p2)
			pk := b.PrepareKey(g1, p1, p2)
			for _, op := range []struct {
				name  string
				bound float64
				run   func()
			}{
				{"Add G2", c.want.addG2, func() { b.Add(backend.G2, g2, p2) }},
				{"Neg G1", c.want.negG1, func() { b.Neg(backend.G1, p1) }},
				{"ScalarMult G1", c.want.scalarMultG1, func() { b.ScalarMult(backend.G1, k, p1) }},
				{"Equal", c.want.equal, func() { b.Equal(backend.G1, p1, g1) }},
				{"ParsePoint G2", c.want.parseG2, func() {
					if _, err := b.ParsePoint(backend.G2, enc); err != nil {
						t.Fatal(err)
					}
				}},
				{"Pair", c.want.pair, func() { b.Pair(p1, p2) }},
				{"GTMul", c.want.gtMul, func() { b.GTMul(gt, gt) }},
				{"GTBytes", c.want.gtBytes, func() { b.GTBytes(gt) }},
				{"SamePairing", c.want.samePairing, func() {
					if !b.SamePairing(p1, g2, g1, p2) {
						t.Fatal("ê(kG1, G2) != ê(G1, kG2)")
					}
				}},
				{"PreparedKey.PairCheck", c.want.pairCheck, func() {
					if !pk.PairCheck(g2, p2) {
						t.Fatal("ê(G1, kG2) != ê(kG1, G2) on the prepared key")
					}
				}},
			} {
				if got := testing.AllocsPerRun(10, op.run); got > op.bound {
					t.Errorf("%s: %.1f allocations per op, want at most %.0f", op.name, got, op.bound)
				}
			}
		})
	}
}
