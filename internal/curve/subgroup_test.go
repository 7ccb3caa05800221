package curve

import (
	"math/big"
	"math/rand"
	"testing"
)

// inSubgroupJacobian is the subgroup test as it was before the x-only
// ladder: the curve equation, then [q]P = ∞ on the Jacobian walk of
// ScalarMult. Kept as the oracle.
func inSubgroupJacobian(c *Curve, p Point) bool {
	return c.IsOnCurve(p) && c.ScalarMult(c.Q, p).IsInfinity()
}

// TestMemberBit pins where the member bit comes from: UnmarshalSubgroup
// sets it; the plain decoder, NewPoint and every group operation leave
// it clear, and Equal ignores it.
func TestMemberBit(t *testing.T) {
	c := testCurve(t)
	g := testGen(t, c)
	if g.member {
		t.Fatal("a cofactor-cleared point carries the member bit")
	}
	m, err := c.UnmarshalSubgroup(c.Marshal(g))
	if err != nil {
		t.Fatal(err)
	}
	if !m.member {
		t.Fatal("UnmarshalSubgroup did not set the member bit")
	}
	if p, err := c.Unmarshal(c.Marshal(g)); err != nil || p.member {
		t.Fatalf("plain Unmarshal: member bit %v, error %v", p.member, err)
	}
	lit, err := c.NewPoint(c.Affine(m))
	if err != nil || lit.member || !lit.Equal(m) || !m.Equal(lit) || !c.Equal(lit, m) {
		t.Fatalf("a point built from a member's coordinates must equal it and carry no bit (%v)", err)
	}
	m2, err := c.UnmarshalSubgroup(c.Marshal(c.Add(g, g)))
	if err != nil {
		t.Fatal(err)
	}
	three := big.NewInt(3)
	for name, p := range map[string]Point{
		"Add":             c.Add(m, m2),
		"Add(∞, m)":       c.Add(Infinity(), m),
		"Add(m, ∞)":       c.Add(m, Infinity()),
		"Add(m, m)":       c.Add(m, m),
		"Neg":             c.Neg(m),
		"ScalarMult":      c.ScalarMult(three, m),
		"ScalarMult by 1": c.ScalarMult(big1, m),
		"MSM":             c.MSM([]*big.Int{big1}, []Point{m}),
	} {
		if p.member {
			t.Errorf("%s: the result carries the member bit", name)
		}
		if !c.InSubgroup(p) {
			t.Errorf("%s: the result left the subgroup", name)
		}
	}
}

// TestInSubgroupAllocs: a decoded point answers from its bit, so the
// check runs neither the ladder nor the curve equation; the ladder
// itself works on a pooled arena.
func TestInSubgroupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, g := ss512(t)
	m, err := c.UnmarshalSubgroup(c.Marshal(g))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sinkBool = c.InSubgroup(m) }); n != 0 {
		t.Errorf("InSubgroup of a decoded point allocates %v times per call, want 0", n)
	}
	x, _ := g.Limbs()
	c.qTorsion(x) // warm the arena pool
	if n := testing.AllocsPerRun(10, func() { sinkBool = c.qTorsion(x) }); n != 0 {
		t.Errorf("the x-only ladder allocates %v times per call, want 0", n)
	}
}

// TestPointAllocs: the curve equation and equality read a point's limbs
// in place, and a decode allocates three times: the x integer, its
// words and the point's one limb vector.
func TestPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, g := ss512(t)
	h := c.Neg(g)
	enc := c.Marshal(g)
	for _, tc := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"IsOnCurve", func() { sinkBool = c.IsOnCurve(g) }, 0},
		{"Equal", func() { sinkBool = c.Equal(g, h) }, 0},
		{"UnmarshalSubgroup", func() { _, _ = c.UnmarshalSubgroup(enc) }, 3},
	} {
		tc.fn() // warm the arena pool
		if n := testing.AllocsPerRun(20, tc.fn); n != tc.want {
			t.Errorf("%s allocates %v times per call, want %v", tc.name, n, tc.want)
		}
	}
}

// ss1536 is the SS1536 preset's primes (params.Preset, which this
// package cannot import); no other curve test runs at 24 limbs.
var ss1536 = struct{ p, q string }{
	"c0c3c234817de96ec923161d24e228ffc379123f7cbf08d2502126593960dc6b69fb15f83d3fc042e46a1b8f7de24ea66456fba42d24ef4961b6bdc552c5d4df08597ced47dd0989af0bb40f65e413fc3c8f2dbf5a71c26934b02395bce25a7352f687afc0f8b3f16f02ca4e6d800e69c2f1611c81a8154940fcaba4a739ed39f908f599ff696cbe40efaaca991ad73449bd26be1d463553e9b9784f1f81c576c6ea58203889a127c1ba39cc9c601cec080eef1da3afb2ec82bfb482206e0783",
	"cae3e41f01cce588747f53badc528fe46cd9e4307351017c1410d98912d23d55",
}

// lowOrderPoints returns points of E(F_p) whose order divides h: [q]R for
// a random R, and [(p+1)/d]R for every power d of each prime below 2¹²
// that divides h — the 2-power part included, so (0, 0) and points of
// order 4 are among them.
func lowOrderPoints(t *testing.T, c *Curve, rng *rand.Rand) []Point {
	t.Helper()
	r, err := c.RandomPoint(rng)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Add(c.F.P(), big1) // #E(F_p)
	out := []Point{c.ScalarMult(c.Q, r)}
	rest := new(big.Int).Set(c.H) // h with the primes below l divided out
	for l := int64(2); l < 1<<12; l++ {
		bl := big.NewInt(l)
		for d := new(big.Int).Set(bl); new(big.Int).Mod(rest, bl).Sign() == 0; d.Mul(d, bl) {
			rest.Quo(rest, bl)
			out = append(out, c.ScalarMult(new(big.Int).Quo(n, d), r))
		}
	}
	return out
}

// TestInSubgroupLadderMatchesOracle holds the x-only ladder to the
// Jacobian [q]P on every preset size: 10⁴ seeded points of E(F_p) at
// Test160 and SS512, 10³ at SS1024 and SS1536 (those two skipped under
// -short; a tenth of every count under -short or -race), plus ∞, (0, 0),
// g + (0, 0), member + low-order sums and points of order dividing h.
// The seeded points walk two progressions so that a point costs one
// affine addition, not a square root and a 1280-bit cofactor ladder:
// R₀ + i·S, and the cofactor-cleared [h]R₀′ + i·[h]S′ = [h](R₀′ + i·S′),
// taken in turn. Each point goes through InSubgroup as built (curve
// equation, then the ladder); the edge cases and every tenth seeded
// point also through UnmarshalSubgroup on their encoding, which must
// set the member bit exactly when it accepts.
func TestInSubgroupLadderMatchesOracle(t *testing.T) {
	rows := []struct {
		name, p, q string
		n          int
	}{
		{oracleCurves[1].name, oracleCurves[1].p, oracleCurves[1].q, 10000},
		{oracleCurves[2].name, oracleCurves[2].p, oracleCurves[2].q, 10000},
		{oracleCurves[3].name, oracleCurves[3].p, oracleCurves[3].q, 1000},
		{"SS1536", ss1536.p, ss1536.q, 1000},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := oracleCurve(t, row.p, row.q)
			n := row.n
			if c.F.ByteLen() > 64 && testing.Short() {
				t.Skip("16- and 24-limb rows skipped under -short")
			}
			if testing.Short() || raceEnabled {
				n /= 10
			}
			rng := rand.New(rand.NewSource(int64(32 + i)))
			g, err := c.RandomSubgroupPoint(rng)
			if err != nil {
				t.Fatal(err)
			}
			two, err := c.NewPoint(new(big.Int), new(big.Int)) // (0, 0)
			if err != nil {
				t.Fatal(err)
			}
			points := []Point{Infinity(), g, two, c.Add(g, two)}
			for _, low := range lowOrderPoints(t, c, rng) {
				points = append(points, low, c.Add(g, low))
			}
			edges := len(points)
			var walk, step [2]Point // [0] plain, [1] cofactor-cleared
			for k := range walk {
				for _, p := range []*Point{&walk[k], &step[k]} {
					if *p, err = c.RandomPoint(rng); err != nil {
						t.Fatal(err)
					}
					if k == 1 {
						*p = c.ScalarMult(c.H, *p)
					}
				}
			}
			for j := 0; j < n; j++ {
				k := j % 2
				walk[k] = c.Add(walk[k], step[k])
				points = append(points, walk[k])
			}
			members := 0
			for j, p := range points {
				want := inSubgroupJacobian(c, p)
				if got := c.InSubgroup(p); got != want {
					t.Fatalf("point %d %v: InSubgroup %v, [q]P = ∞ says %v", j, p, got, want)
				}
				if want {
					members++
				}
				if j >= edges && (j-edges)%10 != 0 {
					continue
				}
				d, err := c.UnmarshalSubgroup(c.Marshal(p))
				if (err == nil) != want || d.member != (want && !p.IsInfinity()) || want && !d.Equal(p) {
					t.Fatalf("point %d %v: UnmarshalSubgroup = %v (member bit %v), %v; [q]P = ∞ says %v", j, p, d, d.member, err, want)
				}
			}
			if cleared := n / 2; members < cleared || members > cleared+edges {
				t.Fatalf("%d members among %d points, half of %d cofactor-cleared", members, len(points), n)
			}
		})
	}
}

// FuzzUnmarshalSubgroup: whatever UnmarshalSubgroup accepts, the
// Jacobian oracle accepts, and it carries the member bit unless it is ∞;
// whatever it rejects is either not a point encoding at all or a point
// the oracle rejects. Test160, on the 3-limb production kernel.
func FuzzUnmarshalSubgroup(f *testing.F) {
	c := oracleCurve(f, oracleCurves[1].p, oracleCurves[1].q)
	rng := rand.New(rand.NewSource(5))
	g, err := c.RandomSubgroupPoint(rng)
	if err != nil {
		f.Fatal(err)
	}
	r, err := c.RandomPoint(rng)
	if err != nil {
		f.Fatal(err)
	}
	two, err := c.NewPoint(new(big.Int), new(big.Int))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []Point{Infinity(), g, c.Neg(g), r, c.ScalarMult(c.Q, r), two, c.Add(g, two)} {
		f.Add(c.Marshal(p))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := c.UnmarshalSubgroup(b)
		if err != nil {
			if p.member {
				t.Fatal("a rejected encoding returned a point with the member bit")
			}
			if q, err := c.Unmarshal(b); err == nil && inSubgroupJacobian(c, q) {
				t.Fatalf("rejected the subgroup point %v", q)
			}
			return
		}
		if !inSubgroupJacobian(c, p) {
			t.Fatalf("accepted %v, which [q]P = ∞ rejects", p)
		}
		if p.member == p.IsInfinity() {
			t.Fatalf("accepted %v with member bit %v", p, p.member)
		}
	})
}
