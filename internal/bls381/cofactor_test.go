package bls381

import (
	"math/big"
	"math/rand"
	"testing"
)

const (
	// h2Hex is the G2 cofactor #E'(Fp2)/r of the M-twist. Production
	// clears cofactors with the ψ decomposition; the plain constant
	// stays here as the oracle that decomposition is checked against.
	h2Hex = "5d543a95414e7f1091d50792876a202cd91de4547085abaa68a205b2e5a7ddfa628f1cb4d9e82ef21537e293a6691ae1616ec6e786f0c70cf1c38e31c7238e5"
	// hEffHex is h_eff of RFC 9380 §8.8.2, the scalar App. G.3's
	// clear_cofactor_bls12381_g2 multiplies by.
	hEffHex = "bc69f08f2ee75b3584c6a0ea91b352888e2a8e9145ad7689986ff031508ffe1329c2f178731db956d82bf015d1212b02ec0ec69d7477c1ae954cbc06689f6a359894c0adebbf6b4e8020005aaa95551"
)

func bigHex(t testing.TB, s string) *big.Int {
	t.Helper()
	n, ok := new(big.Int).SetString(s, 16)
	if !ok {
		t.Fatalf("bad hex constant %q", s)
	}
	return n
}

func TestHEffIsThreeXSquaredMinusOneH2(t *testing.T) {
	initCtx()
	h2 := bigHex(t, h2Hex)
	if h2.BitLen() != 507 {
		t.Fatalf("h2 bit length = %d", h2.BitLen())
	}
	want := new(big.Int).Mul(xBig(), xBig())
	want.Sub(want, big.NewInt(1))
	want.Mul(want, big.NewInt(3))
	want.Mul(want, h2)
	if want.Cmp(bigHex(t, hEffHex)) != 0 {
		t.Fatalf("3(x²−1)·h2 = %x, RFC 9380 h_eff = %s", want, hEffHex)
	}
}

// cofactorInputs is ≥ 64 seeded map outputs (on the twist, outside G2)
// plus the edge cases: ∞, a point already in G2, and a point of order
// dividing h2 — [r]M for a mapped M — which has no G2 component.
func cofactorInputs(t testing.TB) (mapped, edges []g2Affine) {
	initCtx()
	rng := rand.New(rand.NewSource(381))
	for i := 0; i < 64; i++ {
		var u fe2
		u.fromUint64(rng.Uint64(), rng.Uint64())
		mapped = append(mapped, svdwMap(&u))
	}
	var j g2Jac
	j.fromAffine(&mapped[0])
	j.scalarMult(&j, ctx.r)
	if j.isInfinity() {
		t.Fatal("mapped point already has order r")
	}
	return mapped, []g2Affine{g2Infinity(), randG2(t), j.toAffine()}
}

func TestClearCofactor(t *testing.T) {
	mapped, edges := cofactorInputs(t)
	hEff := bigHex(t, hEffHex)
	check := func(name string, p *g2Affine) g2Affine {
		var j g2Jac
		j.fromAffine(p)
		j.clearCofactor(&j) // aliased, as hashToG2 calls it
		got := j.toAffine()
		j.fromAffine(p)
		j.scalarMult(&j, hEff)
		if want := j.toAffine(); !got.equal(&want) {
			t.Fatalf("%s: ψ-clearing differs from [h_eff]P", name)
		}
		if !got.isOnCurve() {
			t.Fatalf("%s: cleared point off the twist", name)
		}
		j.fromAffine(&got)
		j.scalarMult(&j, ctx.r)
		if !j.isInfinity() {
			t.Fatalf("%s: [r]·clear(P) != O", name)
		}
		return got
	}
	for i := range mapped {
		if got := check("mapped", &mapped[i]); got.isInfinity() {
			t.Fatalf("mapped point %d cleared to infinity", i)
		}
	}
	if got := check("infinity", &edges[0]); !got.isInfinity() {
		t.Fatal("clear(O) != O")
	}
	if got := check("G2 member", &edges[1]); got.isInfinity() {
		t.Fatal("a G2 member cleared to infinity")
	}
	if got := check("[r]M", &edges[2]); !got.isInfinity() {
		t.Fatal("a point of order dividing h2 did not clear to infinity")
	}
}

func TestMulByX(t *testing.T) {
	mapped, edges := cofactorInputs(t)
	for i, p := range append(mapped, edges...) {
		var j, got, want g2Jac
		j.fromAffine(&p)
		got.mulByX(&j)
		want.scalarMult(&j, xBig())
		g, w := got.toAffine(), want.toAffine()
		if !g.equal(&w) {
			t.Fatalf("input %d: mulByX != scalarMult(|x|)", i)
		}
		// Aliased receiver, as clearCofactor calls it.
		j.mulByX(&j)
		if g = j.toAffine(); !g.equal(&w) {
			t.Fatalf("input %d: aliased mulByX differs", i)
		}
	}
}

func BenchmarkClearCofactor(b *testing.B) {
	initCtx()
	var u fe2
	u.fromUint64(7, 11)
	m := svdwMap(&u)
	var p, out g2Jac
	p.fromAffine(&m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.clearCofactor(&p)
	}
}

var sinkBool bool

func BenchmarkInSubgroupG2(b *testing.B) {
	q := randG2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = q.inSubgroup()
	}
}
