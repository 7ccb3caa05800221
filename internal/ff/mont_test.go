package ff

import (
	"bytes"
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

// fromMont leaves the Montgomery domain through the encoding.
func fromMont(f *Field, x MontElem) *big.Int {
	return new(big.Int).SetBytes(f.AppendMontBytes(nil, x))
}

// modP is the math/big oracle's reduction: x mod p, in place.
func modP(f *Field, x *big.Int) *big.Int { return x.Mod(x, f.p) }

func randFieldElem(t *testing.T, f *Field) *big.Int {
	t.Helper()
	x, err := f.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestMontRoundTrip pins ToMont/AppendMontBytes as exact inverses,
// including the edge values 0, 1 and p-1.
func TestMontRoundTrip(t *testing.T) {
	for _, f := range montFields(t) {
		m := f.Mont()
		cases := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(f.p, big1)}
		for i := 0; i < 50; i++ {
			cases = append(cases, randFieldElem(t, f))
		}
		e := m.NewElem()
		for _, x := range cases {
			m.ToMont(e, x)
			if got := fromMont(f, e); got.Cmp(x) != 0 {
				t.Fatalf("p=%v: round trip of %v gave %v", f.P(), x, got)
			}
			if got := f.AppendMontBytes([]byte{0xaa}, e); !bytes.Equal(got[1:], f.Bytes(x)) || got[0] != 0xaa {
				t.Fatalf("p=%v: AppendMontBytes of %v gave %x", f.P(), x, got)
			}
		}
		m.ToMont(e, big.NewInt(1))
		if !m.IsOne(e) {
			t.Fatalf("p=%v: ToMont(1) is not the cached R mod p", f.P())
		}
	}
}

// TestMontArithmeticMatchesBig cross-checks every backend operation
// against math/big on random operands.
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
				if got := fromMont(f, rm); got.Cmp(want) != 0 {
					t.Fatalf("p=%v %s(%v, %v) = %v, want %v", f.P(), op, a, b, got, want)
				}
			}
			m.Add(rm, am, bm)
			check("Add", modP(f, new(big.Int).Add(a, b)))
			m.Sub(rm, am, bm)
			check("Sub", modP(f, new(big.Int).Sub(a, b)))
			m.Mul(rm, am, bm)
			check("Mul", modP(f, new(big.Int).Mul(a, b)))
			m.Sqr(rm, am)
			check("Sqr", modP(f, new(big.Int).Mul(a, a)))
			m.Double(rm, am)
			check("Double", modP(f, new(big.Int).Add(a, a)))
			m.Neg(rm, am)
			check("Neg", modP(f, new(big.Int).Neg(a)))
			if a.Sign() != 0 {
				m.Inv(rm, am)
				check("Inv", new(big.Int).ModInverse(a, f.p))
			}
			e := new(big.Int).Rsh(b, uint(b.BitLen()/2))
			m.Exp(rm, am, e)
			check("Exp", new(big.Int).Exp(a, e, f.p))
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
		if got := fromMont(f, x); got.Cmp(modP(f, new(big.Int).Mul(a, b))) != 0 {
			t.Fatalf("aliased Mul mismatch")
		}
		m.Set(x, am)
		m.Sqr(x, x)
		if got := fromMont(f, x); got.Cmp(modP(f, new(big.Int).Mul(a, a))) != 0 {
			t.Fatalf("aliased Sqr mismatch")
		}
		m.Set(x, am)
		m.Add(x, x, x)
		if got := fromMont(f, x); got.Cmp(modP(f, new(big.Int).Add(a, a))) != 0 {
			t.Fatalf("aliased Add mismatch")
		}
		m.Set(x, am)
		m.Sub(x, x, bm)
		if got := fromMont(f, x); got.Cmp(modP(f, new(big.Int).Sub(a, b))) != 0 {
			t.Fatalf("aliased Sub mismatch")
		}
	}
}
