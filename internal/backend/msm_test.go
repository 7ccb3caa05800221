package backend_test

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// groupRow names one group of one preset.
type groupRow struct {
	preset string
	g      backend.Group
}

// msmGroups lists every (preset, group) the multi-scalar multiplication
// runs in: the four Type-1 presets (one group each) and both BLS12-381
// groups.
var msmGroups = []groupRow{
	{"Test160", backend.G2}, {"SS512", backend.G2}, {"SS1024", backend.G2}, {"SS1536", backend.G2},
	{params.PresetBLS12381, backend.G1}, {params.PresetBLS12381, backend.G2},
}

// naiveMSM is the reference: one ScalarMult and one Add per term.
func naiveMSM(b backend.Backend, g backend.Group, scalars []*big.Int, points []curve.Point) curve.Point {
	sum := b.Infinity(g)
	for i, k := range scalars {
		sum = b.Add(g, sum, b.ScalarMult(g, k, points[i]))
	}
	return sum
}

// offSubgroup returns a curve point outside the order-q subgroup of a
// Type-1 backend: Q + (0, 0), a subgroup point plus the 2-torsion point
// of y² = x³ + x. ok is false on BLS12-381, whose backend hands out no
// such point.
func offSubgroup(b backend.Backend, q curve.Point) (curve.Point, bool) {
	if b.Asymmetric() {
		return curve.Point{}, false
	}
	c, _ := b.(*backend.Symmetric).Type1()
	two, err := c.NewPoint(new(big.Int), new(big.Int))
	if err != nil {
		panic(err)
	}
	return b.Add(backend.G2, q, two), true
}

// msmInput builds n seeded terms that walk every shape the verifier and
// the combiner can feed in: random subgroup points under random 128-bit
// and full-width scalars, zero scalars, scalars at and past the group
// order, the identity, one point repeated, P right next to −P under the
// same scalar and, on Type-1, points outside the subgroup.
func msmInput(b backend.Backend, g backend.Group, n int, seed int64) ([]*big.Int, []curve.Point) {
	rng := rand.New(rand.NewSource(seed))
	r := b.Order()
	wide := new(big.Int).Lsh(big.NewInt(1), uint(r.BitLen()+70))
	scalars := make([]*big.Int, n)
	points := make([]curve.Point, n)
	step := b.ScalarMult(g, new(big.Int).Rand(rng, r), b.Generator(g))
	p := step
	for i := range points {
		p = b.Add(g, p, step)
		points[i] = p
		switch rng.Intn(4) {
		case 0:
			scalars[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
		case 1:
			scalars[i] = new(big.Int).Rand(rng, r)
		case 2:
			scalars[i] = new(big.Int).Add(r, big.NewInt(int64(rng.Intn(3)))) // r, r+1, r+2
		default:
			scalars[i] = new(big.Int).Rand(rng, wide)
		}
		switch i % 12 {
		case 3:
			scalars[i] = new(big.Int)
		case 5:
			points[i] = b.Infinity(g)
		case 7:
			points[i] = points[i-1]
		case 9:
			points[i], scalars[i] = b.Neg(g, points[i-1]), scalars[i-1]
		case 11:
			if q, ok := offSubgroup(b, p); ok {
				points[i] = q
			}
		}
	}
	return scalars, points
}

// TestMSMMatchesNaiveSum: on every preset and group the multi-scalar
// multiplication returns the very point Σ ScalarMult + Add returns.
func TestMSMMatchesNaiveSum(t *testing.T) {
	for _, row := range msmGroups {
		for _, n := range []int{0, 1, 2, 48, 300} {
			t.Run(fmt.Sprintf("%s/%v/n=%d", row.preset, row.g, n), func(t *testing.T) {
				b := params.MustPreset(row.preset).B
				if testing.Short() && b.PointLen(row.g) > 97 && n > 48 {
					t.Skip("wide-field n=300 rows skipped under -short")
				}
				scalars, points := msmInput(b, row.g, n, int64(n)+1)
				got, want := b.MSM(row.g, scalars, points), naiveMSM(b, row.g, scalars, points)
				if !b.Equal(row.g, got, want) {
					t.Fatalf("MSM = %v, naive sum = %v", got, want)
				}
				if n == 0 && !got.IsInfinity() {
					t.Fatal("the empty sum must be the identity")
				}
			})
		}
	}
}

// TestMSMIndependentOfGOMAXPROCS: the chunking follows the processor
// count, the result must not — same bytes at 1, 2 and 4.
func TestMSMIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, row := range msmGroups {
		b := params.MustPreset(row.preset).B
		scalars, points := msmInput(b, row.g, 100, 7)
		var first []byte
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			enc := b.AppendPoint(nil, row.g, b.MSM(row.g, scalars, points))
			if first == nil {
				first = enc
			} else if !bytes.Equal(enc, first) {
				t.Fatalf("%s/%v: GOMAXPROCS=%d changed the sum", row.preset, row.g, procs)
			}
		}
	}
}

// TestMSMMemoryIsBoundedInN: a page may carry 65 536 updates, so the
// table storage is per block, not per point. 4096 points allocate well
// under what one 4-entry table per point would take (2.3 MB on the
// smallest field here, 4.7 MB in BLS12-381 G2).
func TestMSMMemoryIsBoundedInN(t *testing.T) {
	const n, bound = 4096, 1 << 20
	for _, row := range []groupRow{{"Test160", backend.G2}, {"SS512", backend.G2}, {params.PresetBLS12381, backend.G2}} {
		b := params.MustPreset(row.preset).B
		scalars, points := make([]*big.Int, n), make([]curve.Point, n)
		rng := rand.New(rand.NewSource(1))
		for i := range points {
			scalars[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
			points[i] = b.Generator(row.g)
		}
		b.MSM(row.g, scalars[:64], points[:64]) // warm the arena pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum := b.MSM(row.g, scalars, points)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes", row.preset, got)
		if got > bound {
			t.Errorf("%s: MSM over %d points allocated %d bytes, bound %d", row.preset, n, got, bound)
		}
		total := new(big.Int)
		for _, k := range scalars {
			total.Add(total, k)
		}
		if !b.Equal(row.g, sum, b.ScalarMult(row.g, total.Mod(total, b.Order()), b.Generator(row.g))) {
			t.Errorf("%s: Σ kᵢ·G ≠ (Σ kᵢ)·G", row.preset)
		}
	}
}

// FuzzMSM is the differential target: the input picks a group, then per
// term a scalar of up to 40 bytes and a point shape (a small multiple
// of the generator, its negative, the identity, a repeat of the term
// before or — Type-1 — an off-subgroup point). MSM must equal the naive
// sum.
func FuzzMSM(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0xff, 2, 0, 0, 4, 0x80, 0x01})
	f.Add([]byte{1, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{2, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	rows := []groupRow{{"Test160", backend.G2}, {params.PresetBLS12381, backend.G1}, {params.PresetBLS12381, backend.G2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		row := rows[int(data[0])%len(rows)]
		b, g := params.MustPreset(row.preset).B, row.g
		var scalars []*big.Int
		var points []curve.Point
		for data = data[1:]; len(data) >= 2 && len(scalars) < 40; {
			shape, klen := data[0], min(int(data[1])%41, len(data)-2)
			k := new(big.Int).SetBytes(data[2 : 2+klen])
			data = data[2+klen:]
			p := b.ScalarMult(g, big.NewInt(int64(shape>>3)+1), b.Generator(g))
			switch shape & 7 {
			case 1:
				p = b.Neg(g, p)
			case 2:
				p = b.Infinity(g)
			case 3:
				if len(points) > 0 {
					p = points[len(points)-1]
				}
			case 4:
				if q, ok := offSubgroup(b, p); ok {
					p = q
				}
			}
			scalars, points = append(scalars, k), append(points, p)
		}
		if got, want := b.MSM(g, scalars, points), naiveMSM(b, g, scalars, points); !b.Equal(g, got, want) {
			t.Fatalf("%s/%v: MSM = %v, naive sum = %v over %v", row.preset, g, got, want, scalars)
		}
	})
}

// TestHashSumG2MatchesPerMessageSum: clearing the cofactor once over
// Σ kᵢ·M(mᵢ) lands on the same point as Σ kᵢ·HashToG2(mᵢ), on 10³
// seeded labels per preset (64 on the two wide fields) under 128-bit
// scalars applied unreduced (Test160's q is 80 bits). The Type-1 retry case (h·M = ∞,
// probability 1/q a label) cannot be hit by a seed.
func TestHashSumG2MatchesPerMessageSum(t *testing.T) {
	for _, preset := range params.PresetNames() {
		t.Run(preset, func(t *testing.T) {
			b := params.MustPreset(preset).B
			n := 1000
			if b.PointLen(backend.G2) > 97 {
				n = 64 // SS1024, SS1536: a hash costs 20–70 ms there
			}
			rng := rand.New(rand.NewSource(26))
			scalars, msgs, hashes := make([]*big.Int, n), make([][]byte, n), make([]curve.Point, n)
			for i := range msgs {
				scalars[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
				msgs[i] = []byte(fmt.Sprintf("2026-%04d-%d", i, rng.Int63()))
				hashes[i] = b.HashToG2("time", msgs[i])
			}
			for _, m := range []int{0, 1, 48, n} {
				got := b.HashSumG2("time", scalars[:m], msgs[:m])
				if want := naiveMSM(b, backend.G2, scalars[:m], hashes[:m]); !b.Equal(backend.G2, got, want) {
					t.Fatalf("n=%d: HashSumG2 = %v, Σ kᵢ·HashToG2 = %v", m, got, want)
				}
			}
			if got := b.HashSumG2("other", scalars[:2], msgs[:2]); b.Equal(backend.G2, got, naiveMSM(b, backend.G2, scalars[:2], hashes[:2])) {
				t.Fatal("the domain must separate the sums")
			}
		})
	}
}
