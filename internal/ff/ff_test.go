package ff

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

// testPrime is a 64-bit prime ≡ 3 (mod 4), large enough to exercise
// multi-word arithmetic paths while keeping quick-check rounds cheap.
var testPrime = func() *big.Int {
	p, ok := new(big.Int).SetString("ffffffffffffff43", 16) // largest 64-bit prime ≡ 3 (mod 4)
	if !ok {
		panic("bad test prime literal")
	}
	if !p.ProbablyPrime(64) {
		panic("test prime is not prime")
	}
	if new(big.Int).Mod(p, big.NewInt(4)).Int64() != 3 {
		panic("test prime is not ≡ 3 mod 4")
	}
	return p
}()

func testField(t *testing.T) *Field {
	t.Helper()
	f, err := NewField(testPrime)
	if err != nil {
		t.Fatalf("NewField: %v", err)
	}
	return f
}

// randElem adapts quick.Check's int64 source into a field element.
func randElem(f *Field, seed int64) *big.Int {
	return f.Reduce(new(big.Int).SetInt64(seed).Abs(new(big.Int).SetInt64(seed)))
}

func TestNewFieldRejectsBadModulus(t *testing.T) {
	for _, p := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(1), big.NewInt(4), big.NewInt(2)} {
		if _, err := NewField(p); err == nil {
			t.Errorf("NewField(%v) must fail", p)
		}
	}
	if _, err := NewField(big.NewInt(7)); err != nil {
		t.Errorf("NewField(7): %v", err)
	}

	// The limb layer stops at 2048 bits; a wider modulus is an error
	// that names the way out, not a field without a hot path.
	widest := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 2048), big.NewInt(1))
	if f, err := NewField(widest); err != nil || f.Mont() == nil {
		t.Errorf("NewField(2^2048-1): field %v, err %v", f, err)
	}
	for _, bits := range []uint{2048, 3071} { // 2049- and 3072-bit odd moduli
		p := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), bits), big.NewInt(1))
		_, err := NewField(p)
		if err == nil || !strings.Contains(err.Error(), "bls12381") || strings.Contains(err.Error(), "\n") {
			t.Errorf("NewField(%d-bit modulus): err %v, want a one-line error naming bls12381", p.BitLen(), err)
		}
	}
}

func TestInvBatch(t *testing.T) {
	f := testField(t)
	for _, n := range []int{0, 1, 2, 17} {
		xs := make([]*big.Int, n)
		for i := range xs {
			x, err := f.RandNonZero(nil)
			if err != nil {
				t.Fatal(err)
			}
			xs[i] = x
		}
		invs := f.InvBatch(xs)
		if len(invs) != n {
			t.Fatalf("InvBatch returned %d results for %d inputs", len(invs), n)
		}
		for i := range xs {
			if invs[i].Cmp(f.Inv(xs[i])) != 0 {
				t.Fatalf("InvBatch[%d] != Inv", i)
			}
		}
	}
}

func TestInvBatchPanicsOnZero(t *testing.T) {
	f := testField(t)
	defer func() {
		if recover() == nil {
			t.Fatal("InvBatch with a zero element must panic like Inv")
		}
	}()
	f.InvBatch([]*big.Int{big.NewInt(5), new(big.Int)})
}

// TestWNAFRecoding: the recoded digits must reconstruct the scalar,
// with every non-zero digit odd and within (−2^(w−1), 2^(w−1)), at the
// two widths in use (5 for ExpUnitary, 8 for curve.ScalarMultBase).
func TestWNAFRecoding(t *testing.T) {
	for _, w := range []uint{5, 8} {
		half := 1 << (w - 1)
		prop := func(k uint64) bool {
			n := new(big.Int).SetUint64(k)
			digits := AppendWNAF(nil, n, w)
			acc := new(big.Int)
			for i := len(digits) - 1; i >= 0; i-- {
				d := int(digits[i])
				acc.Lsh(acc, 1)
				acc.Add(acc, big.NewInt(int64(d)))
				if d != 0 && (d%2 == 0 || d >= half || d <= -half) {
					return false
				}
			}
			return acc.Cmp(n) == 0
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	f := testField(t)
	cfg := &quick.Config{MaxCount: 200}

	commutative := func(x, y int64) bool {
		a, b := randElem(f, x), randElem(f, y)
		return f.Equal(f.Add(a, b), f.Add(b, a)) && f.Equal(f.Mul(a, b), f.Mul(b, a))
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Error(err)
	}

	associative := func(x, y, z int64) bool {
		a, b, c := randElem(f, x), randElem(f, y), randElem(f, z)
		return f.Equal(f.Add(f.Add(a, b), c), f.Add(a, f.Add(b, c))) &&
			f.Equal(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c)))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Error(err)
	}

	distributive := func(x, y, z int64) bool {
		a, b, c := randElem(f, x), randElem(f, y), randElem(f, z)
		return f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c)))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Error(err)
	}

	inverses := func(x int64) bool {
		a := randElem(f, x)
		if !f.Equal(f.Add(a, f.Neg(a)), new(big.Int)) {
			return false
		}
		if a.Sign() == 0 {
			return true
		}
		return f.Equal(f.Mul(a, f.Inv(a)), big.NewInt(1))
	}
	if err := quick.Check(inverses, cfg); err != nil {
		t.Error(err)
	}

	subIsAddNeg := func(x, y int64) bool {
		a, b := randElem(f, x), randElem(f, y)
		return f.Equal(f.Sub(a, b), f.Add(a, f.Neg(b)))
	}
	if err := quick.Check(subIsAddNeg, cfg); err != nil {
		t.Error(err)
	}

	sqrMatchesMul := func(x int64) bool {
		a := randElem(f, x)
		return f.Equal(f.Sqr(a), f.Mul(a, a)) && f.Equal(f.Double(a), f.Add(a, a))
	}
	if err := quick.Check(sqrMatchesMul, cfg); err != nil {
		t.Error(err)
	}
}

func TestExpMatchesRepeatedMul(t *testing.T) {
	f := testField(t)
	a, err := f.RandNonZero(nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := big.NewInt(1)
	for e := 0; e < 20; e++ {
		got := f.Exp(a, big.NewInt(int64(e)))
		if !f.Equal(got, acc) {
			t.Fatalf("Exp(a, %d) mismatch", e)
		}
		acc = f.Mul(acc, a)
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	f := testField(t)
	for i := 0; i < 10; i++ {
		a, err := f.RandNonZero(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(f.Exp(a, f.pMinus1), big.NewInt(1)) {
			t.Fatal("a^(p-1) != 1")
		}
	}
}

func TestSqrtAndLegendre(t *testing.T) {
	f := testField(t)
	squares, nonSquares := 0, 0
	for i := 0; i < 64; i++ {
		a, err := f.RandNonZero(nil)
		if err != nil {
			t.Fatal(err)
		}
		sq := f.Sqr(a)
		if f.Legendre(sq) != 1 {
			t.Fatal("square has Legendre symbol != 1")
		}
		r, err := f.Sqrt(sq)
		if err != nil {
			t.Fatalf("Sqrt of a square: %v", err)
		}
		if !f.Equal(f.Sqr(r), sq) {
			t.Fatal("Sqrt result does not square back")
		}
		switch f.Legendre(a) {
		case 1:
			squares++
			if _, err := f.Sqrt(a); err != nil {
				t.Fatalf("Sqrt of declared square failed: %v", err)
			}
		case -1:
			nonSquares++
			if _, err := f.Sqrt(a); !errors.Is(err, ErrNotSquare) {
				t.Fatalf("Sqrt of non-square: err=%v, want ErrNotSquare", err)
			}
		}
	}
	if squares == 0 || nonSquares == 0 {
		t.Fatalf("suspicious Legendre distribution: %d squares, %d non-squares", squares, nonSquares)
	}
	if f.Legendre(new(big.Int)) != 0 {
		t.Fatal("Legendre(0) != 0")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := testField(t)
	for i := 0; i < 32; i++ {
		a, err := f.Rand(nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := f.Bytes(a)
		if len(enc) != f.ByteLen() {
			t.Fatalf("encoding length %d, want %d", len(enc), f.ByteLen())
		}
		back, err := f.SetBytes(enc)
		if err != nil {
			t.Fatalf("SetBytes: %v", err)
		}
		if !f.Equal(a, back) {
			t.Fatal("byte round trip mismatch")
		}
	}
	// Non-canonical encodings are rejected.
	if _, err := f.SetBytes(f.P().FillBytes(make([]byte, f.ByteLen()))); err == nil {
		t.Fatal("encoding of p itself must be rejected")
	}
	if _, err := f.SetBytes(make([]byte, f.ByteLen()+1)); err == nil {
		t.Fatal("wrong-length encoding must be rejected")
	}
}

func TestRandIsInRangeAndVaried(t *testing.T) {
	f := testField(t)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		a, err := f.Rand(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !f.IsResidue(a) {
			t.Fatal("Rand out of range")
		}
		seen[a.String()] = true
	}
	if len(seen) < 45 {
		t.Fatalf("suspiciously repetitive randomness: %d distinct of 50", len(seen))
	}
	nz, err := f.RandNonZero(nil)
	if err != nil {
		t.Fatal(err)
	}
	if nz.Sign() == 0 {
		t.Fatal("RandNonZero returned zero")
	}
}

func TestInvZeroPanics(t *testing.T) {
	f := testField(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	f.Inv(new(big.Int))
}

func TestReduceAndIsResidue(t *testing.T) {
	f := testField(t)
	big := new(big.Int).Add(f.P(), big.NewInt(5))
	r := f.Reduce(big)
	if !f.IsResidue(r) || r.Int64() != 5 {
		t.Fatalf("Reduce(p+5) = %v", r)
	}
	if f.IsResidue(f.P()) {
		t.Fatal("p itself must not be a residue")
	}
	if f.IsResidue(nil) {
		t.Fatal("nil must not be a residue")
	}
}

func TestBytesIsFixedWidth(t *testing.T) {
	f := testField(t)
	small := f.Bytes(big.NewInt(1))
	if len(small) != f.ByteLen() || !bytes.HasPrefix(small, make([]byte, f.ByteLen()-1)) {
		t.Fatal("small values must be left-padded to fixed width")
	}
}
