package ff

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"slices"
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

// TestWNAFRecoding: the recoded digits must reconstruct the scalar,
// with every non-zero digit odd and within (−2^(w−1), 2^(w−1)), any two
// non-zero digits at least w apart and the top digit non-zero, at the
// widths in use (4 for the curves' Straus walks, 5 for the endomorphism
// and unitary ladders). Quick-checked on uint64 scalars, then on zero and
// on inputs that cross limb boundaries; the limb entry must give the big.Int
// entry's digits.
func TestWNAFRecoding(t *testing.T) {
	one := big.NewInt(1)
	ones := func(n uint) *big.Int { return new(big.Int).Sub(new(big.Int).Lsh(one, n), one) }
	rng := mrand.New(mrand.NewSource(1))
	multi := []*big.Int{new(big.Int), ones(64), new(big.Int).Lsh(one, 64), ones(128), ones(255), ones(512), ones(2049),
		new(big.Int).Rand(rng, new(big.Int).Lsh(one, 256)), new(big.Int).Rand(rng, new(big.Int).Lsh(one, 600))}
	for _, w := range []uint{4, 5} {
		check := func(n *big.Int) bool {
			digits := AppendWNAF(nil, n, w)
			limbs := make([]uint64, (n.BitLen()+63)/64+1) // one zero limb on top
			for i := range limbs {
				limbs[i] = new(big.Int).And(new(big.Int).Rsh(n, uint(64*i)), ones(64)).Uint64()
			}
			if !slices.Equal(AppendWNAF(nil, limbs, w), digits) ||
				len(digits) > 0 && digits[len(digits)-1] == 0 {
				return false
			}
			acc, last := new(big.Int), len(digits)+int(w)
			for i := len(digits) - 1; i >= 0; i-- {
				d := int(digits[i])
				acc.Lsh(acc, 1)
				acc.Add(acc, big.NewInt(int64(d)))
				if d == 0 {
					continue
				}
				if d%2 == 0 || d >= 1<<(w-1) || d <= -1<<(w-1) || last-i < int(w) {
					return false
				}
				last = i
			}
			return acc.Cmp(n) == 0
		}
		if err := quick.Check(func(k uint64) bool { return check(new(big.Int).SetUint64(k)) }, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
		for _, n := range append(multi, new(big.Int).Sub(new(big.Int).Lsh(one, 128), new(big.Int).Lsh(one, w))) {
			if !check(n) {
				t.Errorf("width %d: bad recoding of %#x", w, n)
			}
		}
	}
}

// mont returns a's Montgomery form in a fresh element.
func mont(m *Mont, a *big.Int) MontElem {
	e := m.NewElem()
	m.ToMont(e, a)
	return e
}

// fresh wraps a two-operand Mont operation to return a fresh element.
func fresh(m *Mont, op func(dst, x, y MontElem)) func(x, y MontElem) MontElem {
	return func(x, y MontElem) MontElem {
		r := m.NewElem()
		op(r, x, y)
		return r
	}
}

// TestFieldAxiomsQuick checks the field axioms on the Montgomery layer,
// the only F_p arithmetic in production.
func TestFieldAxiomsQuick(t *testing.T) {
	f := testField(t)
	m := f.Mont()
	add, sub, mul := fresh(m, m.Add), fresh(m, m.Sub), fresh(m, m.Mul)
	unary := func(op func(dst, x MontElem)) func(x MontElem) MontElem {
		return func(x MontElem) MontElem {
			r := m.NewElem()
			op(r, x)
			return r
		}
	}
	neg, inv, sqr, dbl := unary(m.Neg), unary(m.Inv), unary(m.Sqr), unary(m.Double)
	elem := func(seed int64) MontElem { return mont(m, randElem(f, seed)) }
	cfg := &quick.Config{MaxCount: 200}

	commutative := func(x, y int64) bool {
		a, b := elem(x), elem(y)
		return m.Equal(add(a, b), add(b, a)) && m.Equal(mul(a, b), mul(b, a))
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Error(err)
	}

	associative := func(x, y, z int64) bool {
		a, b, c := elem(x), elem(y), elem(z)
		return m.Equal(add(add(a, b), c), add(a, add(b, c))) &&
			m.Equal(mul(mul(a, b), c), mul(a, mul(b, c)))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Error(err)
	}

	distributive := func(x, y, z int64) bool {
		a, b, c := elem(x), elem(y), elem(z)
		return m.Equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Error(err)
	}

	inverses := func(x int64) bool {
		a := elem(x)
		if !m.IsZero(add(a, neg(a))) {
			return false
		}
		return m.IsZero(a) || m.IsOne(mul(a, inv(a)))
	}
	if err := quick.Check(inverses, cfg); err != nil {
		t.Error(err)
	}

	subIsAddNeg := func(x, y int64) bool {
		a, b := elem(x), elem(y)
		return m.Equal(sub(a, b), add(a, neg(b)))
	}
	if err := quick.Check(subIsAddNeg, cfg); err != nil {
		t.Error(err)
	}

	sqrMatchesMul := func(x int64) bool {
		a := elem(x)
		return m.Equal(sqr(a), mul(a, a)) && m.Equal(dbl(a), add(a, a))
	}
	if err := quick.Check(sqrMatchesMul, cfg); err != nil {
		t.Error(err)
	}
}

func TestExpMatchesRepeatedMul(t *testing.T) {
	f := testField(t)
	m := f.Mont()
	a, err := f.RandNonZero(nil)
	if err != nil {
		t.Fatal(err)
	}
	am, acc, got := mont(m, a), m.NewElem(), m.NewElem()
	m.SetOne(acc)
	for e := 0; e < 20; e++ {
		if m.Exp(got, am, big.NewInt(int64(e))); !m.Equal(got, acc) {
			t.Fatalf("Exp(a, %d) mismatch", e)
		}
		m.Mul(acc, acc, am)
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	f := testField(t)
	m := f.Mont()
	pm1 := new(big.Int).Sub(f.p, big1)
	for i := 0; i < 10; i++ {
		a, err := f.RandNonZero(nil)
		if err != nil {
			t.Fatal(err)
		}
		am := mont(m, a)
		if m.Exp(am, am, pm1); !m.IsOne(am) {
			t.Fatal("a^(p-1) != 1")
		}
	}
}

// ErrNotSquare, Legendre and Sqrt are the math/big square-root oracle:
// production screens hash candidates with Mont.Legendre and lifts
// points with one exponentiation on limbs (curve.lift), and these stay
// here for the tests that pin them.
var ErrNotSquare = errors.New("ff: element is not a square")

// Legendre returns the Legendre symbol (a/p): 1 if a is a non-zero
// square, -1 if a non-square, 0 if a ≡ 0 (mod p).
func (f *Field) Legendre(a *big.Int) int {
	return big.Jacobi(new(big.Int).Mod(a, f.p), f.p)
}

// Sqrt returns the square root big.Int.ModSqrt computes, or
// ErrNotSquare if there is none.
func (f *Field) Sqrt(a *big.Int) (*big.Int, error) {
	r := new(big.Int).ModSqrt(new(big.Int).Mod(a, f.p), f.p)
	if r == nil {
		return nil, ErrNotSquare
	}
	return r, nil
}

func TestSqrtAndLegendre(t *testing.T) {
	f := testField(t)
	squares, nonSquares := 0, 0
	for i := 0; i < 64; i++ {
		a, err := f.RandNonZero(nil)
		if err != nil {
			t.Fatal(err)
		}
		sq := modP(f, new(big.Int).Mul(a, a))
		if f.Legendre(sq) != 1 {
			t.Fatal("square has Legendre symbol != 1")
		}
		r, err := f.Sqrt(sq)
		if err != nil {
			t.Fatalf("Sqrt of a square: %v", err)
		}
		if modP(f, r.Mul(r, r)).Cmp(sq) != 0 {
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
		if a.Cmp(back) != 0 {
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
		if !f.IsReduced(a) {
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
	m := testField(t).Mont()
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	m.Inv(m.NewElem(), m.NewElem())
}

func TestReduceAndIsReduced(t *testing.T) {
	f := testField(t)
	wide := new(big.Int).Add(f.P(), big.NewInt(5))
	r := f.Reduce(wide)
	if !f.IsReduced(r) || r.Int64() != 5 {
		t.Fatalf("Reduce(p+5) = %v", r)
	}
	if f.IsReduced(f.P()) {
		t.Fatal("p itself must not count as reduced")
	}
	if f.IsReduced(nil) {
		t.Fatal("nil must not count as reduced")
	}
	if f.IsReduced(big.NewInt(-1)) {
		t.Fatal("a negative integer must not count as reduced")
	}
}

func TestBytesIsFixedWidth(t *testing.T) {
	f := testField(t)
	small := f.Bytes(big.NewInt(1))
	if len(small) != f.ByteLen() || !bytes.HasPrefix(small, make([]byte, f.ByteLen()-1)) {
		t.Fatal("small values must be left-padded to fixed width")
	}
}
