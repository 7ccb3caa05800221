package ff_test

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"timedrelease/internal/ff"
	"timedrelease/internal/ref"
)

// tower is one F_{p²} under test: the limb layer (Fp2Mont) and the
// math/big oracle (ref.Fp2) over the same field, with one scratch block
// held for the test's lifetime. Each helper returns a fresh element.
type tower struct {
	e2m *ff.Fp2Mont
	big *ref.Fp2
	s   *ff.Fp2MontScratch
}

func newTower(tb testing.TB, f *ff.Field) *tower {
	tb.Helper()
	e2, err := ref.NewFp2(f)
	if err != nil {
		tb.Fatal(err)
	}
	e2m := &ff.Fp2Mont{M: f.Mont()}
	a := f.Mont().GetArena()
	tb.Cleanup(a.Release)
	return &tower{e2m: e2m, big: e2, s: e2m.ScratchIn(a)}
}

func smallTower(t *testing.T) *tower {
	t.Helper()
	f, err := ff.NewField(ff.SmallPrime)
	if err != nil {
		t.Fatal(err)
	}
	return newTower(t, f)
}

func (w *tower) mul(x, y ff.Fp2MontElem) ff.Fp2MontElem {
	r := w.e2m.NewElem()
	w.e2m.MulInto(&r, x, y, w.s)
	return r
}

func (w *tower) sqr(x ff.Fp2MontElem) ff.Fp2MontElem {
	r := w.e2m.NewElem()
	w.e2m.SqrInto(&r, x, w.s)
	return r
}

func (w *tower) inv(x ff.Fp2MontElem) ff.Fp2MontElem {
	r := w.e2m.NewElem()
	w.e2m.InvInto(&r, x, w.s)
	return r
}

func (w *tower) conj(x ff.Fp2MontElem) ff.Fp2MontElem {
	r := w.e2m.NewElem()
	w.e2m.ConjInto(&r, x)
	return r
}

// add is coordinate-wise, the one F_{p²} operation the limb layer does
// not need as a method.
func (w *tower) add(x, y ff.Fp2MontElem) ff.Fp2MontElem {
	r := w.e2m.NewElem()
	w.e2m.M.Add(r.A, x.A, y.A)
	w.e2m.M.Add(r.B, x.B, y.B)
	return r
}

// expUnitary is x^k on the signed-window ladder, over an arena of its
// own; x must be unitary.
func (w *tower) expUnitary(x ff.Fp2MontElem, k *big.Int) ff.Fp2MontElem {
	a := w.e2m.M.GetArena()
	defer a.Release()
	r := w.e2m.NewElem()
	w.e2m.ExpUnitaryWNAFInto(&r, x, ff.UnitaryWNAF(k), w.e2m.ScratchIn(a), a)
	return r
}

// unitary returns x/conj(x), an element of norm 1, for x ≠ 0.
func (w *tower) unitary(x ff.Fp2MontElem) ff.Fp2MontElem {
	return w.mul(x, w.inv(w.conj(x)))
}

func (w *tower) rand(tb testing.TB) ff.Fp2MontElem {
	tb.Helper()
	x, err := w.big.Rand(rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	return w.big.Limbs(x)
}

func (w *tower) quick(x, y int64) ff.Fp2MontElem {
	f := w.big.Fp
	abs := func(v int64) *big.Int { return new(big.Int).Abs(big.NewInt(v)) }
	return w.big.Limbs(w.big.New(f.Reduce(abs(x)), f.Reduce(abs(y))))
}

// is reports whether the limb element got equals the oracle's want.
func (w *tower) is(got ff.Fp2MontElem, want ref.Fp2Elem) bool {
	return w.big.Equal(w.big.FromLimbs(got), want)
}

func TestNewFp2RequiresPMod4(t *testing.T) {
	// p = 5 ≡ 1 (mod 4): x²+1 is reducible, construction must fail.
	f, err := ff.NewField(big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.NewFp2(f); err == nil {
		t.Fatal("NewFp2 must reject p ≡ 1 (mod 4)")
	}
}

func TestFp2FieldAxiomsQuick(t *testing.T) {
	w := smallTower(t)
	e := w.e2m
	cfg := &quick.Config{MaxCount: 150}

	ring := func(x1, y1, x2, y2, x3, y3 int64) bool {
		a, b, c := w.quick(x1, y1), w.quick(x2, y2), w.quick(x3, y3)
		if !e.Equal(w.mul(a, b), w.mul(b, a)) {
			return false
		}
		if !e.Equal(w.mul(w.mul(a, b), c), w.mul(a, w.mul(b, c))) {
			return false
		}
		return e.Equal(w.mul(a, w.add(b, c)), w.add(w.mul(a, b), w.mul(a, c)))
	}
	if err := quick.Check(ring, cfg); err != nil {
		t.Error(err)
	}

	inverse := func(x, y int64) bool {
		a := w.quick(x, y)
		if e.IsZero(a) {
			return true
		}
		return e.IsOne(w.mul(a, w.inv(a)))
	}
	if err := quick.Check(inverse, cfg); err != nil {
		t.Error(err)
	}

	sqr := func(x, y int64) bool {
		a := w.quick(x, y)
		return e.Equal(w.sqr(a), w.mul(a, a))
	}
	if err := quick.Check(sqr, cfg); err != nil {
		t.Error(err)
	}

	conj := func(x1, y1, x2, y2 int64) bool {
		a, b := w.quick(x1, y1), w.quick(x2, y2)
		// Conjugation is a field automorphism.
		if !e.Equal(w.conj(w.mul(a, b)), w.mul(w.conj(a), w.conj(b))) {
			return false
		}
		// a·conj(a) is the norm, in F_p (imaginary part 0).
		n := w.big.FromLimbs(w.mul(a, w.conj(a)))
		return n.B.Sign() == 0 && n.A.Cmp(w.big.Norm(w.big.FromLimbs(a))) == 0
	}
	if err := quick.Check(conj, cfg); err != nil {
		t.Error(err)
	}
}

func TestConjIsFrobenius(t *testing.T) {
	// conj(z) must equal z^p — the identity FinalExp relies on.
	w := smallTower(t)
	for i := 0; i < 8; i++ {
		z := w.rand(t)
		if !w.is(w.conj(z), w.big.ExpBig(w.big.FromLimbs(z), w.big.Fp.P())) {
			t.Fatal("conj(z) != z^p")
		}
	}
}

func TestIUnitSquaresToMinusOne(t *testing.T) {
	w := smallTower(t)
	i := w.big.Limbs(w.big.New(new(big.Int), big.NewInt(1)))
	minusOne := w.big.New(w.big.Fp.Neg(big.NewInt(1)), new(big.Int))
	if !w.is(w.sqr(i), minusOne) {
		t.Fatal("i² != -1")
	}
}

// TestFp2ExpLaws: the unitary ladder obeys z^(a+b) = z^a·z^b,
// (z^a)^b = z^(ab) and z^0 = 1 on a unitary z.
func TestFp2ExpLaws(t *testing.T) {
	w := smallTower(t)
	e := w.e2m
	z := w.unitary(w.rand(t))
	a, b := big.NewInt(12345), big.NewInt(67891)
	if !e.Equal(w.expUnitary(z, new(big.Int).Add(a, b)), w.mul(w.expUnitary(z, a), w.expUnitary(z, b))) {
		t.Fatal("exponent addition law fails")
	}
	if !e.Equal(w.expUnitary(w.expUnitary(z, a), b), w.expUnitary(z, new(big.Int).Mul(a, b))) {
		t.Fatal("exponent multiplication law fails")
	}
	if !e.IsOne(w.expUnitary(z, new(big.Int))) {
		t.Fatal("z^0 != 1")
	}
}

// TestFp2OrderOfMultiplicativeGroup: z^(p²−1) = 1 for all z ≠ 0, on the
// oracle directly and on limbs as the final exponentiation computes it,
// z^(p−1) = conj(z)·z⁻¹ then the unitary ladder to the power p+1.
func TestFp2OrderOfMultiplicativeGroup(t *testing.T) {
	w := smallTower(t)
	p := w.big.Fp.P()
	p2m1 := new(big.Int).Mul(p, p)
	p2m1.Sub(p2m1, big.NewInt(1))
	for i := 0; i < 5; i++ {
		z := w.rand(t)
		if w.e2m.IsZero(z) {
			continue
		}
		if !w.big.IsOne(w.big.ExpBig(w.big.FromLimbs(z), p2m1)) {
			t.Fatal("oracle: z^(p²-1) != 1")
		}
		u := w.mul(w.conj(z), w.inv(z))
		if !w.e2m.IsOne(w.expUnitary(u, new(big.Int).Add(p, big.NewInt(1)))) {
			t.Fatal("limbs: (z^(p-1))^(p+1) != 1")
		}
	}
}

func TestFp2BytesRoundTrip(t *testing.T) {
	w := smallTower(t)
	for i := 0; i < 16; i++ {
		z := w.big.FromLimbs(w.rand(t))
		back, err := w.big.SetBytes(w.big.Bytes(z))
		if err != nil {
			t.Fatalf("SetBytes: %v", err)
		}
		if !w.big.Equal(z, back) || !w.e2m.Equal(w.big.Limbs(back), w.big.Limbs(z)) {
			t.Fatal("round trip mismatch")
		}
	}
	if _, err := w.big.SetBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("wrong-length encoding must be rejected")
	}
}

func TestMulScalar(t *testing.T) {
	w := smallTower(t)
	z := w.big.FromLimbs(w.rand(t))
	if !w.big.Equal(w.big.MulScalar(z, big.NewInt(3)), w.big.Add(z, w.big.Add(z, z))) {
		t.Fatal("MulScalar(z,3) != z+z+z")
	}
}

func TestFp2InvZeroPanics(t *testing.T) {
	w := smallTower(t)
	defer func() {
		if recover() == nil {
			t.Fatal("InvInto(0) must panic")
		}
	}()
	w.inv(w.e2m.NewElem())
}

func TestFp2String(t *testing.T) {
	w := smallTower(t)
	s := w.big.New(big.NewInt(3), big.NewInt(7)).String()
	if s != "3 + 7·i" {
		t.Fatalf("String() = %q", s)
	}
}

// fp2Fields returns the MontFields rows an F_{p²} exists over
// (p ≡ 3 mod 4).
func fp2Fields(t *testing.T) []*ff.Field {
	var out []*ff.Field
	for _, f := range ff.MontFields(t) {
		if f.P().Bit(1) == 1 {
			out = append(out, f)
		}
	}
	return out
}

// checkOps holds every limb F_{p²} operation on (x, y) to the oracle;
// the exponent check runs on the unitary x/conj(x), the only elements
// the limb ladder serves.
func checkOps(t *testing.T, w *tower, x, y ff.Fp2MontElem, k *big.Int) {
	t.Helper()
	bx, by := w.big.FromLimbs(x), w.big.FromLimbs(y)
	check := func(op string, got ff.Fp2MontElem, want ref.Fp2Elem) {
		t.Helper()
		if !w.is(got, want) {
			t.Fatalf("p=%v %s mismatch: got %v want %v", w.big.Fp.P(), op, w.big.FromLimbs(got), want)
		}
	}
	check("Mul", w.mul(x, y), w.big.Mul(bx, by))
	check("Sqr", w.sqr(x), w.big.Sqr(bx))
	check("Conj", w.conj(x), w.big.Conj(bx))
	if w.e2m.IsZero(x) {
		return
	}
	check("Inv", w.inv(x), w.big.Inv(bx))
	u := w.unitary(x)
	check("ExpUnitary", w.expUnitary(u, k), w.big.ExpBig(w.big.FromLimbs(u), k))
}

// TestFp2MontMatchesBig cross-checks the extension-field limb ops
// against the math/big oracle at every width.
func TestFp2MontMatchesBig(t *testing.T) {
	for _, f := range fp2Fields(t) {
		w := newTower(t, f)
		for i := 0; i < 100; i++ {
			x, y := w.rand(t), w.rand(t)
			k := new(big.Int).SetBytes(f.Bytes(w.big.FromLimbs(y).A)[:4])
			checkOps(t, w, x, y, k)
		}
	}
}

// TestFp2ExpRoutesMatch pins the unitary ladder, on elements built as
// z/conj(z) (norm 1), against the oracle's ExpBig at full-size
// exponents, and on the identity at the edge exponents.
func TestFp2ExpRoutesMatch(t *testing.T) {
	for _, f := range fp2Fields(t) {
		w := newTower(t, f)
		for i := 0; i < 30; i++ {
			x := w.rand(t)
			if w.e2m.IsZero(x) {
				continue
			}
			k, err := f.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			u := w.unitary(x)
			if w.big.Norm(w.big.FromLimbs(u)).Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("test element is not unitary")
			}
			if got, want := w.expUnitary(u, k), w.big.ExpBig(w.big.FromLimbs(u), k); !w.is(got, want) {
				t.Fatalf("ExpUnitary mismatch on unitary element: got %v want %v", w.big.FromLimbs(got), want)
			}
		}
		for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2)} {
			if !w.e2m.IsOne(w.expUnitary(w.e2m.One(), k)) {
				t.Fatalf("ExpUnitary(1, %v) != 1", k)
			}
		}
	}
}

// FuzzFp2Arith cross-checks the extension-field limb operations against
// the math/big oracle on fuzzer-chosen operands at SS512.
func FuzzFp2Arith(f *testing.F) {
	fld := ff.FieldsForFuzz(f)[1]
	w := newTower(f, fld)
	f.Add([]byte{0}, []byte{1}, []byte{2}, []byte{3})
	f.Add([]byte{1}, []byte{0}, []byte{0}, []byte{0})
	f.Fuzz(func(t *testing.T, xa, xb, ya, yb []byte) {
		if len(xa) > 128 || len(xb) > 128 || len(ya) > 128 || len(yb) > 128 {
			return
		}
		reduce := func(b []byte) *big.Int { return fld.Reduce(new(big.Int).SetBytes(b)) }
		x := w.big.Limbs(ref.Fp2Elem{A: reduce(xa), B: reduce(xb)})
		y := w.big.Limbs(ref.Fp2Elem{A: reduce(ya), B: reduce(yb)})
		checkOps(t, w, x, y, new(big.Int).SetBytes(yb))
	})
}
