package bls381

import (
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// fixedBaseScalars are endoScalars plus the reduction edges r, r+1 and
// 2²⁵⁶−1 and scalars whose base-|x| digits sit on a window's carry:
// every window fbEntries (the largest positive entry), fbEntries+1 (the
// first that borrows from the next window) or all ones.
func fixedBaseScalars(n int) []*big.Int {
	ks := endoScalars(n)
	one := big.NewInt(1)
	all := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	ks = append(ks, new(big.Int).Set(ctx.r), new(big.Int).Add(ctx.r, one), all)
	for _, w := range []uint64{fbEntries, fbEntries + 1, 1<<fbWindow - 1} {
		var d uint64
		for j := 0; j < fbRows-1; j++ {
			d |= w << (fbWindow * j)
		}
		d %= xAbs
		k := new(big.Int)
		for i := 0; i < 4; i++ {
			k.Mul(k, xBig()).Add(k, new(big.Int).SetUint64(d))
		}
		ks = append(ks, k.Mod(k, ctx.r))
	}
	return ks
}

// TestG2FixedBaseMatchesScalarMult diffs the table walk against the
// ψ-GLS ladder, through PrepareBase, for the generator (its shared
// table) and for a random multiple of it, on edge and random scalars.
func TestG2FixedBaseMatchesScalarMult(t *testing.T) {
	b := New()
	n := 200
	if testing.Short() {
		n = 20
	}
	x := randG2(t)
	for name, p := range map[string]curve.Point{"generator": b.Generator(backend.G2), "x·G2": wrapG2(&x)} {
		t.Run(name, func(t *testing.T) {
			mul := b.PrepareBase(backend.G2, p)
			for _, k := range fixedBaseScalars(n) {
				if got, want := mul(k), b.ScalarMult(backend.G2, k, p); !b.Equal(backend.G2, got, want) {
					t.Fatalf("k = %x: the table walk differs from ScalarMult", k)
				}
			}
		})
	}
	// The identity and G1 keep the ladder.
	k := big.NewInt(0xC0FFEE)
	if !b.PrepareBase(backend.G2, b.Infinity(backend.G2))(k).IsInfinity() {
		t.Fatal("k·O is not the identity")
	}
	g1 := b.Generator(backend.G1)
	if !b.Equal(backend.G1, b.PrepareBase(backend.G1, g1)(k), b.ScalarMult(backend.G1, k, g1)) {
		t.Fatal("G1 PrepareBase differs from ScalarMult")
	}
}

// TestG2FixedBaseAllocs pins the walk to its result: the limb vector
// of the point it returns.
func TestG2FixedBaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	mul := New().PrepareBase(backend.G2, wrapG2(&ctx.g2))
	k := randScalarT(t)
	if n := testing.AllocsPerRun(10, func() { mul(k) }); n > 1 {
		t.Errorf("the walk allocates %v times per call, want at most 1", n)
	}
}

// FuzzG2FixedBase checks the walk on the generator's table and on the
// table of a hashed point against the windowed ladder, for k the first
// input (unreduced) and the point a hash of the second.
func FuzzG2FixedBase(f *testing.F) {
	initCtx()
	for _, k := range fixedBaseScalars(0) {
		f.Add(k.Bytes(), []byte("point"))
	}
	f.Fuzz(func(t *testing.T, kb, pb []byte) {
		if len(kb) > 64 || len(pb) > 64 {
			return
		}
		k := new(big.Int).SetBytes(kb)
		kr := new(big.Int).Mod(k, ctx.r)
		h := hashToG2(pb, "bls381-fuzz-fixed-base")
		for _, p := range []*g2Affine{&ctx.g2, &h} {
			var q, want g2Jac
			q.fromAffine(p)
			want.scalarMult(&q, kr)
			w := want.toAffine()
			tbl := g2GenTable()
			if p != &ctx.g2 {
				tbl = newG2Table(p)
			}
			if got := unwrapG2(tbl.mul(k)); !got.equal(&w) {
				t.Fatalf("k = %x: the table walk differs from the ladder", k)
			}
		}
	})
}
