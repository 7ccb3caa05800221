package ff_test

import (
	"math/big"
	"math/rand"
	"testing"

	"timedrelease/internal/ff"
	"timedrelease/internal/params"
)

// bls381P is BLS12-381's base-field prime: bls381's fe.inv is Mont.Inv
// on a six-limb context for it.
const bls381P = "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"

// gcdFields are the moduli the binary-GCD engine is checked at: the
// package's test primes (one and two limbs, Test160, SS512, SS1024),
// BLS12-381's prime and SS1536, so every Type-1 width — 3, 8, 16 and
// 24 limbs — and BLS12-381's 6 are covered; rows over 512 bits are
// skipped under -short.
func gcdFields(t *testing.T) []*ff.Field {
	t.Helper()
	p, _ := new(big.Int).SetString(bls381P, 16)
	fields := ff.MontFields(t)
	for _, p := range []*big.Int{p, params.MustPreset("SS1536").P} {
		if testing.Short() && p.BitLen() > 512 {
			continue
		}
		f, err := ff.NewField(p)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// gcdInputs returns the structural edges — 1, 2, p−1, (p−1)/2, (p+1)/2,
// and 2^k below p for k in steps of 7 and on both sides of every limb
// boundary — then n seeded random elements of [1, p).
func gcdInputs(p *big.Int, n int, seed int64) []*big.Int {
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(p, one)
	xs := []*big.Int{one, big.NewInt(2), pm1, new(big.Int).Rsh(pm1, 1), new(big.Int).Rsh(new(big.Int).Add(p, one), 1)}
	for k := 1; k < p.BitLen(); k++ {
		if k%7 == 0 || k%64 == 63 || k%64 == 0 {
			xs = append(xs, new(big.Int).Lsh(one, uint(k)))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		xs = append(xs, new(big.Int).Add(new(big.Int).Rand(rng, pm1), one))
	}
	return xs
}

// gcdLoads are the two ways a test input v enters the engine, whose
// a starts as the limbs of x: as the element v (limbs v·R mod p), and
// as the limbs v themselves (the element v·R⁻¹, which has v's Legendre
// symbol), so the edges are edges of the engine's own input too.
var gcdLoads = []func(m *ff.Mont, x ff.MontElem, v *big.Int){
	func(m *ff.Mont, x ff.MontElem, v *big.Int) { m.ToMont(x, v) },
	func(_ *ff.Mont, x ff.MontElem, v *big.Int) {
		w := new(big.Int).Set(v)
		for i := range x {
			x[i] = new(big.Int).And(w, new(big.Int).SetUint64(^uint64(0))).Uint64()
			w.Rsh(w, 64)
		}
	},
}

// gcdCount scales a random-input count down under -short and -race.
func gcdCount(n int, f *ff.Field) int {
	if testing.Short() || ff.RaceEnabled {
		n /= 10
	}
	if f.BitLen() > 512 {
		n /= 10
	}
	return n
}

// TestLegendreMatchesJacobi pins Mont.Legendre to big.Jacobi on zero,
// the edges and seeded random elements at every width.
func TestLegendreMatchesJacobi(t *testing.T) {
	for _, f := range gcdFields(t) {
		m, p := f.Mont(), f.P()
		x := m.NewElem()
		if got := m.Legendre(x); got != 0 {
			t.Fatalf("|p|=%d: Legendre(0) = %d", p.BitLen(), got)
		}
		for _, v := range gcdInputs(p, gcdCount(20000, f), 7) {
			for _, load := range gcdLoads {
				load(m, x, v)
				if got, want := m.Legendre(x), big.Jacobi(v, p); got != want {
					t.Fatalf("|p|=%d: Legendre(%x) = %d, big.Jacobi %d", p.BitLen(), v, got, want)
				}
			}
		}
	}
}

// TestInvMatchesFermat pins the binary-GCD Mont.Inv to the Fermat
// inverse x^(p−2), its oracle, and to big.ModInverse at every width, on
// the edges and seeded random elements, in place and out of place; and
// inverting zero still panics.
func TestInvMatchesFermat(t *testing.T) {
	for _, f := range gcdFields(t) {
		m, p := f.Mont(), f.P()
		pm2 := new(big.Int).Sub(p, big.NewInt(2))
		x, got, want := m.NewElem(), m.NewElem(), m.NewElem()
		for _, v := range gcdInputs(p, gcdCount(2000, f), 11) {
			for i, load := range gcdLoads {
				load(m, x, v)
				m.Inv(got, x)
				m.Exp(want, x, pm2)
				if !m.Equal(got, want) {
					t.Fatalf("|p|=%d: Inv(%x) (load %d) differs from x^(p-2)", p.BitLen(), v, i)
				}
				if i == 0 {
					if back := new(big.Int).SetBytes(f.AppendMontBytes(nil, got)); back.Cmp(new(big.Int).ModInverse(v, p)) != 0 {
						t.Fatalf("|p|=%d: Inv(%x) = %x, want %x", p.BitLen(), v, back, new(big.Int).ModInverse(v, p))
					}
				}
				if m.Inv(x, x); !m.Equal(x, want) {
					t.Fatalf("|p|=%d: Inv(%x) (load %d) in place differs", p.BitLen(), v, i)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("|p|=%d: Inv(0) did not panic", p.BitLen())
				}
			}()
			m.Inv(got, m.NewElem())
		}()
	}
}

// TestInvIterationsFixed: Inv runs the outer-iteration count fixed at
// init, ⌈(2|p| − 1)/31⌉, for every input, and a has reached zero within
// it; the correction constant is what math/big derives from its parts:
// R³ times 2^64 per (u, v) update, one every second iteration, over
// 2^31 per iteration.
func TestInvIterationsFixed(t *testing.T) {
	for _, f := range gcdFields(t) {
		m, p := f.Mont(), f.P()
		iters := m.InvIters()
		if want := (2*p.BitLen() - 1 + 30) / 31; iters != want {
			t.Fatalf("|p|=%d: %d iterations fixed at init, want %d", p.BitLen(), iters, want)
		}
		r3 := new(big.Int).Lsh(big.NewInt(1), uint(3*64*m.Limbs()))
		fix := new(big.Int).Lsh(r3, uint(64*((iters+1)/2)))
		fix.Mul(fix, new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(31*iters)), p)).Mod(fix, p)
		if got := ff.BigFromLimbs(m.InvFix()); got.Cmp(fix) != 0 {
			t.Fatalf("|p|=%d: correction %x, want %x", p.BitLen(), got, fix)
		}
		x, v := m.NewElem(), make([]uint64, m.Limbs())
		most := 0
		for _, in := range gcdInputs(p, gcdCount(2000, f), 13) {
			for _, load := range gcdLoads {
				load(m, x, in)
				ran, live := m.InvCore(v, x)
				if ran != iters || live >= iters {
					t.Fatalf("|p|=%d x=%x: ran %d iterations, a non-zero after %d of them; want %d, a zero after the last", p.BitLen(), in, ran, live, iters)
				}
				most = max(most, live)
			}
		}
		t.Logf("|p|=%d: %d iterations, a reached zero after at most %d", p.BitLen(), iters, most+1)
	}
}

// TestGCDZeroAlloc: Legendre and Inv run on stack state only.
func TestGCDZeroAlloc(t *testing.T) {
	if ff.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, f := range gcdFields(t) {
		m := f.Mont()
		x, r := m.NewElem(), m.NewElem()
		m.ToMont(x, new(big.Int).Rsh(f.P(), 1))
		if n := testing.AllocsPerRun(10, func() { m.Legendre(x) }); n != 0 {
			t.Errorf("|p|=%d: Legendre allocates %v times per call", f.BitLen(), n)
		}
		if n := testing.AllocsPerRun(10, func() { m.Inv(r, x) }); n != 0 {
			t.Errorf("|p|=%d: Inv allocates %v times per call", f.BitLen(), n)
		}
	}
}
