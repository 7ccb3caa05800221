package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// montTestPrimes covers the Test160, SS512 and SS1024 preset moduli
// (duplicated here so ff does not import params) plus two edge shapes:
// a tiny prime and a full-limb-width prime where additions carry out of
// n limbs. The 16-limb SS1024 row comes last and is skipped under
// -short.
var montTestPrimes = []string{
	"cab69233645ff2ec9acee7e93cf76c09cab9c52f", // Test160 p
	"ad1b4018db0dcf94ca80575c821b9aefd402ad39db7a7d85fb0f8e71989659c2af8599a5b178cf01ddb933717119e7db4055e2b5e452590b660633ca3f0897b7", // SS512 p
	"7fffffff",                         // 31-bit prime, single limb
	"ffffffffffffffffffffffffffffff61", // 128-bit prime with both limbs full
	"ad9a6e357557eb15668567fb42048d4265160edec9ae4d134bd4ab8d3cb48e659bf1198c17a1ac94870d40a0b013c456c52a86d827ba47dcadcdb78b45baa254d8bdd82e9c5c47088070a72b0b31238218a74808edb04c9da0be604bdc70995cc1e0c0b3664622935cc3eb7bf830b69e1145326b4e562226b65da09c6e4d447b", // SS1024 p
}

func montFields(t *testing.T) []*Field {
	t.Helper()
	var out []*Field
	for _, hexp := range montTestPrimes {
		p, ok := new(big.Int).SetString(hexp, 16)
		if !ok {
			t.Fatalf("bad prime literal %q", hexp)
		}
		if testing.Short() && p.BitLen() > 512 {
			continue
		}
		f, err := NewField(p)
		if err != nil {
			t.Fatalf("NewField(%s): %v", hexp, err)
		}
		out = append(out, f)
	}
	return out
}

func randFieldElem(t *testing.T, f *Field) *big.Int {
	t.Helper()
	x, err := f.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestMontRoundTrip pins ToMont/FromMont as exact inverses, including
// the edge values 0, 1 and p-1.
func TestMontRoundTrip(t *testing.T) {
	for _, f := range montFields(t) {
		m := f.Mont()
		cases := []*big.Int{big.NewInt(0), big.NewInt(1), f.pMinus1}
		for i := 0; i < 50; i++ {
			cases = append(cases, randFieldElem(t, f))
		}
		e := m.NewElem()
		for _, x := range cases {
			m.ToMont(e, x)
			if got := m.FromMont(nil, e); got.Cmp(x) != 0 {
				t.Fatalf("p=%v: round trip of %v gave %v", f.P(), x, got)
			}
		}
		m.ToMont(e, big.NewInt(1))
		if !m.IsOne(e) {
			t.Fatalf("p=%v: ToMont(1) is not the cached R mod p", f.P())
		}
	}
}

// TestMontArithmeticMatchesBig cross-checks every backend operation
// against the big.Int reference on random operands.
func TestMontArithmeticMatchesBig(t *testing.T) {
	for _, f := range montFields(t) {
		m := f.Mont()
		am, bm, rm := m.NewElem(), m.NewElem(), m.NewElem()
		for i := 0; i < 200; i++ {
			a, b := randFieldElem(t, f), randFieldElem(t, f)
			m.ToMont(am, a)
			m.ToMont(bm, b)

			check := func(op string, want *big.Int) {
				t.Helper()
				if got := m.FromMont(nil, rm); got.Cmp(want) != 0 {
					t.Fatalf("p=%v %s(%v, %v) = %v, want %v", f.P(), op, a, b, got, want)
				}
			}
			m.Add(rm, am, bm)
			check("Add", f.Add(a, b))
			m.Sub(rm, am, bm)
			check("Sub", f.Sub(a, b))
			m.Mul(rm, am, bm)
			check("Mul", f.Mul(a, b))
			m.Sqr(rm, am)
			check("Sqr", f.Sqr(a))
			m.Double(rm, am)
			check("Double", f.Double(a))
			m.Neg(rm, am)
			check("Neg", f.Neg(a))
			if a.Sign() != 0 {
				m.Inv(rm, am)
				check("Inv", f.Inv(a))
			}
			e := new(big.Int).Rsh(b, uint(b.BitLen()/2))
			m.Exp(rm, am, e)
			check("Exp", f.Exp(a, e))
		}
	}
}

// TestMontAliasing verifies dst may alias operands in every op.
func TestMontAliasing(t *testing.T) {
	for _, f := range montFields(t) {
		m := f.Mont()
		a, b := randFieldElem(t, f), randFieldElem(t, f)
		am, bm := m.NewElem(), m.NewElem()
		m.ToMont(am, a)
		m.ToMont(bm, b)

		x := m.NewElem()
		m.Set(x, am)
		m.Mul(x, x, bm) // dst aliases first operand
		if got := m.FromMont(nil, x); got.Cmp(f.Mul(a, b)) != 0 {
			t.Fatalf("aliased Mul mismatch")
		}
		m.Set(x, am)
		m.Sqr(x, x)
		if got := m.FromMont(nil, x); got.Cmp(f.Sqr(a)) != 0 {
			t.Fatalf("aliased Sqr mismatch")
		}
		m.Set(x, am)
		m.Add(x, x, x)
		if got := m.FromMont(nil, x); got.Cmp(f.Double(a)) != 0 {
			t.Fatalf("aliased Add mismatch")
		}
		m.Set(x, am)
		m.Sub(x, x, bm)
		if got := m.FromMont(nil, x); got.Cmp(f.Sub(a, b)) != 0 {
			t.Fatalf("aliased Sub mismatch")
		}
	}
}

// TestFp2MontMatchesBig cross-checks the extension-field limb ops
// against the big.Int Fp2 reference.
func TestFp2MontMatchesBig(t *testing.T) {
	for _, f := range montFields(t) {
		if new(big.Int).Mod(f.P(), big4).Cmp(big3) != 0 {
			continue // Fp2 needs p ≡ 3 (mod 4)
		}
		e2, err := NewFp2(f)
		if err != nil {
			t.Fatal(err)
		}
		em := e2.Mont()
		if em == nil {
			t.Fatal("no Fp2 Montgomery context")
		}
		s := em.NewScratch()
		xm, ym, rm := em.NewElem(), em.NewElem(), em.NewElem()
		for i := 0; i < 100; i++ {
			x, err := e2.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			y, err := e2.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			em.ToMont(&xm, x)
			em.ToMont(&ym, y)

			check := func(op string, want Fp2Elem) {
				t.Helper()
				if got := em.FromMont(rm); !e2.Equal(got, want) {
					t.Fatalf("p=%v %s mismatch: got %v want %v", f.P(), op, got, want)
				}
			}
			em.MulInto(&rm, xm, ym, s)
			check("Mul", e2.Mul(x, y))
			em.SqrInto(&rm, xm, s)
			check("Sqr", e2.Sqr(x))
			em.AddInto(&rm, xm, ym)
			check("Add", e2.Add(x, y))
			em.SubInto(&rm, xm, ym)
			check("Sub", e2.Sub(x, y))
			em.ConjInto(&rm, xm)
			check("Conj", e2.Conj(x))
			if !e2.IsZero(x) {
				em.InvInto(&rm, xm, s)
				check("Inv", e2.Inv(x))
			}
			k := new(big.Int).SetBytes(e2.Fp.Bytes(y.A)[:4])
			em.ExpInto(&rm, xm, k, s)
			check("Exp", e2.ExpBig(x, k))
		}
	}
}

// TestFp2ExpRoutesMatch pins Fp2.Exp and — on unitary elements built as
// z/conj(z), which always have norm 1 — Fp2.ExpUnitary against the
// math/big oracle ExpBig.
func TestFp2ExpRoutesMatch(t *testing.T) {
	for _, f := range montFields(t) {
		if new(big.Int).Mod(f.P(), big4).Cmp(big3) != 0 {
			continue
		}
		e2, err := NewFp2(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			x, err := e2.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			k, err := f.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := e2.Exp(x, k), e2.ExpBig(x, k); !e2.Equal(got, want) {
				t.Fatalf("Exp route mismatch: got %v want %v", got, want)
			}
			if e2.IsZero(x) {
				continue
			}
			u := e2.Mul(x, e2.Inv(e2.Conj(x))) // norm(u) = 1
			if !f.Equal(e2.Norm(u), big.NewInt(1)) {
				t.Fatalf("test element is not unitary")
			}
			if got, want := e2.ExpUnitary(u, k), e2.ExpBig(u, k); !e2.Equal(got, want) {
				t.Fatalf("ExpUnitary mismatch on unitary element: got %v want %v", got, want)
			}
		}
		// Edge exponents.
		u := e2.One()
		for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2)} {
			if got := e2.ExpUnitary(u, k); !e2.IsOne(got) {
				t.Fatalf("ExpUnitary(1, %v) != 1", k)
			}
		}
	}
}
