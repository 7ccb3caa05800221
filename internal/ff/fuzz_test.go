package ff

import (
	"math/big"
	"testing"
)

// fuzzFields builds, once, the two kernel widths — Test160 and SS512,
// whose full-width modulus is the harshest carry/borrow shape the
// backend supports — and one loop width, the two-limb prime with both
// limbs full. SS512 comes second; FuzzFp2Arith (fp2_test.go) runs on it.
var fuzzFieldsOnce []*Field

func fuzzSetup(f *testing.F) []*Field {
	f.Helper()
	if fuzzFieldsOnce == nil {
		for _, i := range []int{0, 1, 3} {
			p, _ := new(big.Int).SetString(montTestPrimes[i], 16)
			fld, err := NewField(p)
			if err != nil {
				f.Fatal(err)
			}
			fuzzFieldsOnce = append(fuzzFieldsOnce, fld)
		}
	}
	return fuzzFieldsOnce
}

// fuzzReduce maps arbitrary fuzzer bytes to a canonical field element.
func fuzzReduce(fld *Field, b []byte) *big.Int {
	return fld.Reduce(new(big.Int).SetBytes(b))
}

// FuzzFpArith cross-checks every Montgomery base-field operation
// against math/big on fuzzer-chosen operands, at both
// kernel widths and one loop width, and each kernel against its loop
// form; Mul also against the Go kernel, which at SS512 checks the MULX
// assembly wherever it is dispatched. The binary-GCD Inv and Legendre
// run on the operand and on its raw limbs, against the Fermat inverse
// and big.Jacobi, and the two operands' bytes go through SetWideBytes.
func FuzzFpArith(f *testing.F) {
	fields := fuzzSetup(f)
	p := fields[1].P()
	f.Add([]byte{0}, []byte{1})
	f.Add(p.Bytes(), new(big.Int).Sub(p, big.NewInt(1)).Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{2})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > 128 || len(bb) > 128 {
			return
		}
		for _, fld := range fields {
			a, b := fuzzReduce(fld, ab), fuzzReduce(fld, bb)
			m := fld.Mont()
			am, bm, rm, lm := m.NewElem(), m.NewElem(), m.NewElem(), m.NewElem()
			m.ToMont(am, a)
			m.ToMont(bm, b)
			if got := fromMont(fld, am); got.Cmp(a) != 0 {
				t.Fatalf("round trip: got %v want %v", got, a)
			}
			check := func(op string, want *big.Int) {
				t.Helper()
				if got := fromMont(fld, rm); got.Cmp(want) != 0 {
					t.Fatalf("p=%x %s(%v, %v) = %v, want %v", fld.P(), op, a, b, got, want)
				}
			}
			vsLoop := func(op string, loop func(dst, x, y MontElem)) {
				t.Helper()
				if loop(lm, am, bm); !m.Equal(lm, rm) {
					t.Fatalf("p=%x %s(%v, %v): dispatched %x, reference %x", fld.P(), op, a, b, rm, lm)
				}
			}
			m.Add(rm, am, bm)
			check("Add", modP(fld, new(big.Int).Add(a, b)))
			vsLoop("Add", m.addLoop)
			m.Sub(rm, am, bm)
			check("Sub", modP(fld, new(big.Int).Sub(a, b)))
			vsLoop("Sub", m.subLoop)
			m.Mul(rm, am, bm)
			check("Mul", modP(fld, new(big.Int).Mul(a, b)))
			vsLoop("Mul", m.mulLoop)
			vsLoop("Mul (Go kernel)", m.mulGo)
			m.Sqr(rm, am)
			check("Sqr", modP(fld, new(big.Int).Mul(a, a)))
			m.Neg(rm, am)
			check("Neg", modP(fld, new(big.Int).Neg(a)))
			vsLoop("Neg", func(dst, x, _ MontElem) { m.negLoop(dst, x) })
			if a.Sign() != 0 {
				m.Inv(rm, am)
				check("Inv", new(big.Int).ModInverse(a, fld.p))
				vsLoop("Inv (Fermat oracle)", func(dst, x, _ MontElem) { m.Exp(dst, x, new(big.Int).Sub(fld.p, big2)) })
			}
			if got, want := m.Legendre(am), big.Jacobi(a, fld.p); got != want {
				t.Fatalf("p=%x Legendre(%v) = %d, big.Jacobi %d", fld.P(), a, got, want)
			}
			// a's limbs taken as a Montgomery form: the engine's own
			// input is then the fuzzer's value, edges included.
			limbsFromBig(lm, a)
			if got, want := m.Legendre(lm), big.Jacobi(a, fld.p); got != want {
				t.Fatalf("p=%x Legendre(limbs %v) = %d, big.Jacobi %d", fld.P(), a, got, want)
			}
			if a.Sign() != 0 {
				m.Inv(rm, lm)
				m.Exp(lm, lm, new(big.Int).Sub(fld.p, big2))
				if !m.Equal(rm, lm) {
					t.Fatalf("p=%x Inv(limbs %v) = %x, Fermat oracle %x", fld.P(), a, rm, lm)
				}
			}
			// The fuzzer's bytes as a wide hash output, reduced on limbs.
			if wide := append(append([]byte(nil), ab...), bb...); len(wide) <= 16*m.n {
				m.SetWideBytes(rm, wide)
				check("SetWideBytes", modP(fld, new(big.Int).SetBytes(wide)))
			}
			m.Exp(rm, am, b)
			check("Exp", new(big.Int).Exp(a, b, fld.p))
		}
	})
}
