package bls381

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"timedrelease/internal/backend"
)

// ladder is the 4-bit windowed double-and-add both groups ran before the
// endomorphism ladders: the oracle they are pinned to, and the only
// multiplication that is right on twist and curve points outside the
// subgroup (cofactor tests, uncleared hash outputs).
func ladder[T any, P jac[T]](q *T, k *big.Int) (acc T) {
	if k.Sign() < 0 {
		panic("bls381: negative scalar")
	}
	var tbl [15]T
	tbl[0] = *q
	for i := 1; i < len(tbl); i++ {
		P(&tbl[i]).add(&tbl[i-1], q)
	}
	for i := (k.BitLen()+3)/4*4 - 4; i >= 0; i -= 4 {
		for range 4 {
			P(&acc).double(&acc)
		}
		if w := k.Bit(i+3)<<3 | k.Bit(i+2)<<2 | k.Bit(i+1)<<1 | k.Bit(i); w != 0 {
			P(&acc).add(&acc, &tbl[w-1])
		}
	}
	return acc
}

func (j *g1Jac) scalarMult(q *g1Jac, k *big.Int) { *j = ladder(q, k) }
func (j *g2Jac) scalarMult(q *g2Jac, k *big.Int) { *j = ladder(q, k) }

func xBig() *big.Int { return new(big.Int).SetUint64(xAbs) }

// nafValue is Σ dᵢ·2ⁱ, after checking the digits are a width-w NAF: odd
// or zero, |d| < 2^(w−1), at most one nonzero digit in any w in a row.
func nafValue(t testing.TB, digits []int8, w int) *big.Int {
	t.Helper()
	v := new(big.Int)
	last := len(digits) + w
	for i := len(digits) - 1; i >= 0; i-- {
		v.Lsh(v, 1)
		d := int(digits[i])
		if d == 0 {
			continue
		}
		if d%2 == 0 || max(d, -d) >= 1<<(w-1) || last-i < w {
			t.Fatalf("digit %d = %d breaks the width-%d NAF %v", i, d, w, digits)
		}
		last = i
		v.Add(v, big.NewInt(int64(d)))
	}
	return v
}

// endoScalars are the split's edges — 0, 1, 2, u±1, u, u²±1, u³, r−2,
// r−1, with u = |x| — then n seeded uniform scalars below r.
func endoScalars(n int) []*big.Int {
	initCtx()
	u := xBig()
	u2 := new(big.Int).Mul(u, u)
	one := big.NewInt(1)
	ks := []*big.Int{big.NewInt(0), one, big.NewInt(2), new(big.Int).Sub(u, one), u, new(big.Int).Add(u, one),
		new(big.Int).Sub(u2, one), u2, new(big.Int).Mul(u2, u),
		new(big.Int).Sub(ctx.r, big.NewInt(2)), new(big.Int).Sub(ctx.r, one)}
	rng := mrand.New(mrand.NewSource(31))
	for i := 0; i < n; i++ {
		ks = append(ks, new(big.Int).Rand(rng, ctx.r))
	}
	return ks
}

// checkSplit pins the digit splits behind both ladders: the four
// base-|x| digits and their NAFs recompose to k, each < |x|; the two GLV
// digits recompose to k as k₀ + k₁·x², each < x².
func checkSplit(t *testing.T, k *big.Int) {
	t.Helper()
	u := xBig()
	u2 := new(big.Int).Mul(u, u)
	sum := new(big.Int)
	d := splitX(k)
	for i := len(d) - 1; i >= 0; i-- {
		di := new(big.Int).SetUint64(d[i])
		if di.Cmp(u) >= 0 || nafValue(t, appendWNAF(nil, d[i], 0, endoWindow), endoWindow).Cmp(di) != 0 {
			t.Fatalf("k = %x: base-|x| digit %d = %x is ≥ |x| or its NAF differs", k, i, di)
		}
		sum.Mul(sum, u).Add(sum, di)
	}
	if sum.Cmp(k) != 0 {
		t.Fatalf("k = %x: base-|x| digits recompose to %x", k, sum)
	}
	for _, w := range []int{endoWindow, fixedWindow} {
		g := glvDigits(k, uint(w))
		k0, k1 := nafValue(t, g[0], w), nafValue(t, g[1], w)
		if k0.Cmp(u2) >= 0 || k1.Cmp(u2) >= 0 || sum.Mul(k1, u2).Add(sum, k0).Cmp(k) != 0 {
			t.Fatalf("k = %x: GLV digits %x, %x (width %d) do not split k below x²", k, k0, k1, w)
		}
	}
}

// TestScalarMultEndomorphism pins ψ-GLS (G2), φ-GLV (G1) and the GLV
// walk over the fixed-base table to the windowed ladder on subgroup
// members, at the digit split's edges and 10⁴ seeded scalars (10³ under
// -short or -race).
func TestScalarMultEndomorphism(t *testing.T) {
	n := 10000
	if testing.Short() || raceEnabled {
		n = 1000
	}
	b := New()
	p1 := []g1Affine{ctx.g1, randG1(t)}
	p2 := []g2Affine{ctx.g2, hashToG2([]byte("endo"), "bls381-endo-test")}
	tables := []backend.BaseTable{b.PrecomputeBase(wrapG1(&p1[0])), b.PrecomputeBase(wrapG1(&p1[1]))}
	for i, k := range endoScalars(n) {
		checkSplit(t, k)
		var q1, got1, want1 g1Jac
		q1.fromAffine(&p1[i%2])
		got1.mulEndo(&q1, k)
		want1.scalarMult(&q1, k)
		g, w := got1.toAffine(), want1.toAffine()
		if !g.equal(&w) {
			t.Fatalf("G1 point %d, k = %x: GLV differs from the ladder", i%2, k)
		}
		if base := unwrapG1(b.ScalarMultBase(tables[i%2], k)); !base.equal(&w) {
			t.Fatalf("G1 point %d, k = %x: ScalarMultBase differs from the ladder", i%2, k)
		}
		var q2, got2, want2 g2Jac
		q2.fromAffine(&p2[i%2])
		got2.mulEndo(&q2, k)
		want2.scalarMult(&q2, k)
		if g, w := got2.toAffine(), want2.toAffine(); !g.equal(&w) {
			t.Fatalf("G2 point %d, k = %x: GLS differs from the ladder", i%2, k)
		}
	}
	// The identity, and the aliased receiver Backend.ScalarMult uses.
	var inf1 g1Jac
	var inf2 g2Jac
	if inf1.mulEndo(&inf1, new(big.Int).Sub(ctx.r, big.NewInt(1))); !inf1.isInfinity() {
		t.Fatal("[k]O != O in G1")
	}
	if inf2.mulEndo(&inf2, big.NewInt(5)); !inf2.isInfinity() {
		t.Fatal("[k]O != O in G2")
	}
}

// TestG1EndomorphismSubgroupCheck holds Scott's φ test to the
// definitional [r]P = O on members, on points of E(Fp) whose cofactor
// is not cleared, on points of order dividing h1 ([r]P, and [n/ℓ]P for
// each small prime ℓ | h1), and on member + torsion sums.
func TestG1EndomorphismSubgroupCheck(t *testing.T) {
	initCtx()
	definitional := func(p *g1Affine) bool {
		var j g1Jac
		j.fromAffine(p)
		j.scalarMult(&j, ctx.r)
		return j.isInfinity()
	}
	n := new(big.Int).Mul(ctx.h1, ctx.r) // #E(Fp)
	var small []int64
	for l, h := int64(2), new(big.Int).Set(ctx.h1); l < 1<<16; l++ {
		if new(big.Int).Mod(h, big.NewInt(l)).Sign() == 0 {
			small = append(small, l)
			for new(big.Int).Mod(h, big.NewInt(l)).Sign() == 0 {
				h.Div(h, big.NewInt(l))
			}
		}
	}
	if len(small) < 3 {
		t.Fatalf("small prime factors of h1 = %v, want at least 3, 11 and 10177", small)
	}
	inf := g1Infinity()
	points := []g1Affine{inf, ctx.g1}
	for i := 0; i < 8; i++ {
		points = append(points, randG1(t))
	}
	rng := mrand.New(mrand.NewSource(1130))
	mul := func(p *g1Affine, k *big.Int) g1Affine {
		var j g1Jac
		j.fromAffine(p)
		j.scalarMult(&j, k)
		return j.toAffine()
	}
	for found := 0; found < 8; {
		var x, rhs, y, four fe
		x.fromBig(new(big.Int).Rand(rng, ctx.p))
		four.fromBig(big.NewInt(4))
		rhs.sqr(&x)
		rhs.mul(&rhs, &x)
		rhs.add(&rhs, &four)
		if !y.sqrt(&rhs) {
			continue
		}
		found++
		p := g1Affine{x: x, y: y}
		torsion := mul(&p, ctx.r) // order divides h1
		var sum g1Jac
		sum.fromAffine(&points[2])
		sum.addAffine(&sum, &torsion)
		points = append(points, p, torsion, sum.toAffine())
		for _, l := range small {
			points = append(points, mul(&p, new(big.Int).Div(n, big.NewInt(l))))
		}
	}
	nonMembers := 0
	for i := range points {
		p := &points[i]
		if !p.isOnCurve() {
			t.Fatalf("point %d is off the curve", i)
		}
		want := definitional(p)
		if got := p.inSubgroup(); got != want {
			t.Fatalf("point %d: φ test says %v, [r]P = O says %v", i, got, want)
		}
		if !want {
			nonMembers++
		}
	}
	if nonMembers < 8*3 {
		t.Fatalf("only %d of %d points are non-members", nonMembers, len(points))
	}
}

// FuzzScalarMult differentially checks both endomorphism ladders against
// the windowed ladder: k is the input mod r, the G1 point a multiple of
// the generator and the G2 point a hash of the second input.
func FuzzScalarMult(f *testing.F) {
	initCtx()
	for _, k := range endoScalars(0) {
		f.Add(k.Bytes(), []byte("point"))
	}
	f.Add(ctx.r.Bytes(), []byte{})
	f.Fuzz(func(t *testing.T, kb, pb []byte) {
		if len(kb) > 64 || len(pb) > 64 {
			return
		}
		k := new(big.Int).Mod(new(big.Int).SetBytes(kb), ctx.r)
		var q1, got1, want1 g1Jac
		q1.fromAffine(&ctx.g1)
		q1.scalarMult(&q1, new(big.Int).SetBytes(pb))
		got1.mulEndo(&q1, k)
		want1.scalarMult(&q1, k)
		if g, w := got1.toAffine(), want1.toAffine(); !g.equal(&w) {
			t.Fatalf("G1: k = %x: GLV differs from the ladder", k)
		}
		h := hashToG2(pb, "bls381-fuzz-scalar")
		var q2, got2, want2 g2Jac
		q2.fromAffine(&h)
		got2.mulEndo(&q2, k)
		want2.scalarMult(&q2, k)
		if g, w := got2.toAffine(), want2.toAffine(); !g.equal(&w) {
			t.Fatalf("G2: k = %x: GLS differs from the ladder", k)
		}
	})
}
