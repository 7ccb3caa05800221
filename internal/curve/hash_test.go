package curve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"

	"timedrelease/internal/rohash"
)

// rhsBig returns x³ + x mod p in math/big.
func rhsBig(c *Curve, x *big.Int) *big.Int {
	r := new(big.Int).Exp(x, big.NewInt(3), nil)
	return r.Mod(r.Add(r, x), c.F.P())
}

// pointFromXModSqrt is pointFromX as it was before the limb square root:
// x³+x in math/big, big.Int.ModSqrt (which fails on non-residues), and
// the same parity rule. Kept as the oracle.
func pointFromXModSqrt(c *Curve, x *big.Int, parity byte) (Point, bool) {
	rhs := rhsBig(c, x)
	if rhs.Sign() == 0 {
		return Point{}, false
	}
	y := new(big.Int).ModSqrt(rhs, c.F.P())
	if y == nil {
		return Point{}, false
	}
	if byte(y.Bit(0)) != parity {
		y.Sub(c.F.P(), y)
	}
	p, err := c.NewPoint(x, y)
	return p, err == nil
}

// TestPointFromXMatchesModSqrt: on x = 0, 1, 2, p−1 and seeded random x
// — 10⁴ per curve, 10³ at SS1024 (skipped under -short), a tenth of that
// under -short or -race — each with a seeded parity, the limb lift
// accepts exactly the x the ModSqrt path accepts and returns the same y.
// About half the random x are non-residues.
func TestPointFromXMatchesModSqrt(t *testing.T) {
	for _, row := range oracleCurves {
		t.Run(row.name, func(t *testing.T) {
			c := oracleCurve(t, row.p, row.q)
			n := 10000
			if c.F.ByteLen() > 64 {
				if testing.Short() {
					t.Skip("16-limb row skipped under -short")
				}
				n = 1000
			}
			if testing.Short() || raceEnabled {
				n /= 10
			}
			p := c.F.P()
			xs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(p, big1)}
			rng := rand.New(rand.NewSource(29))
			for len(xs) < n {
				xs = append(xs, new(big.Int).Rand(rng, p))
			}
			rejected := 0
			for _, x := range xs {
				parity := byte(rng.Intn(2))
				got, ok := c.pointFromX(x, parity)
				want, wantOK := pointFromXModSqrt(c, x, parity)
				if ok != wantOK || ok && !got.Equal(want) {
					t.Fatalf("x=%x parity %d: limb lift %v %v, ModSqrt path %v %v", x, parity, got, ok, want, wantOK)
				}
				if !ok {
					rejected++
				}
			}
			if rejected < n/4 || rejected > 3*n/4 {
				t.Fatalf("%d of %d x rejected; expected about half", rejected, n)
			}
		})
	}
}

// hashDigestRows are the curves TestHashToGroupDigest pins, with the
// number of seeded labels each hashes and the SHA-256 it must reproduce.
var hashDigestRows = []struct {
	row    int // index into oracleCurves
	labels int
	digest string
}{
	{1, 512, "364273d0ac6132b42d681620d22971b1f7d5ab0982d5a1d7df22bffd7b0f438b"},
	{2, 512, "57dfff598b4a905786b04acb9cd1b837f22704584a7e5bca29bbdaf5347bef9f"},
	{3, 64, "3065498e710ce3d8943efdc7529b16cdc2f4e01a61d08396f419f8454547d99b"},
}

// TestHashToGroupDigest pins H1's outputs byte for byte: a SHA-256 over
// the accepted counter and the compressed HashToGroup output of seeded
// labels — 512 at Test160 and SS512, 64 at SS1024 (skipped under
// -short). A change to the candidate test, the square root, the parity
// rule or the cofactor clearing moves the digest.
func TestHashToGroupDigest(t *testing.T) {
	for _, d := range hashDigestRows {
		row := oracleCurves[d.row]
		t.Run(row.name, func(t *testing.T) {
			c := oracleCurve(t, row.p, row.q)
			if testing.Short() && c.F.ByteLen() > 64 {
				t.Skip("16-limb row skipped under -short")
			}
			rng := rand.New(rand.NewSource(42))
			h := sha256.New()
			for i := 0; i < d.labels; i++ {
				label := make([]byte, 1+rng.Intn(40))
				rng.Read(label)
				_, ctr := c.hashCandidate("digest", label, 0)
				binary.Write(h, binary.BigEndian, ctr)
				h.Write(c.Marshal(c.HashToGroup("digest", label)))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != d.digest {
				t.Errorf("digest %s, want %s", got, d.digest)
			}
		})
	}
}

// hashCandidateOracle is hashCandidate's try-loop as it was before the
// limb reduction and the Legendre gate: the expanded bytes reduced with
// math/big, and every candidate sent through the ModSqrt lift.
func hashCandidateOracle(c *Curve, dst string, msg []byte) (Point, uint32) {
	for ctr := uint32(0); ; ctr++ {
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		n := (c.F.BitLen()+7+128)/8 + 1
		raw := rohash.Expand("TRE-H1:"+dst, rohash.Concat(cb[:], msg), n)
		x := new(big.Int).Mod(new(big.Int).SetBytes(raw[:n-1]), c.F.P())
		if p, ok := pointFromXModSqrt(c, x, raw[n-1]&1); ok {
			return p, ctr
		}
	}
}

// TestHashCandidateMatchesOracle diffs hashCandidate against the old
// try-loop on 10⁴ seeded labels per curve up to SS512 (a tenth under
// -short or -race): the same counter accepted, the same point.
func TestHashCandidateMatchesOracle(t *testing.T) {
	for _, row := range oracleCurves[:3] {
		t.Run(row.name, func(t *testing.T) {
			c := oracleCurve(t, row.p, row.q)
			n := 10000
			if testing.Short() || raceEnabled {
				n /= 10
			}
			rng := rand.New(rand.NewSource(43))
			for i := 0; i < n; i++ {
				label := make([]byte, rng.Intn(48))
				rng.Read(label)
				got, ctr := c.hashCandidate("oracle", label, 0)
				want, wantCtr := hashCandidateOracle(c, "oracle", label)
				if ctr != wantCtr || !got.Equal(want) {
					t.Fatalf("label %x: counter %d point %v, oracle counter %d point %v", label, ctr, got, wantCtr, want)
				}
			}
		})
	}
}

// TestHashCandidateAllocs pins the limb hash loop's allocations: at
// most three per try; the expansion's output buffer is the one left.
func TestHashCandidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, row := range oracleCurves[1:3] {
		c := oracleCurve(t, row.p, row.q)
		for i := 0; i < 16; i++ {
			label := []byte{byte(i)}
			_, ctr := c.hashCandidate("allocs", label, 0)
			tries := float64(ctr) + 1
			if n := testing.AllocsPerRun(5, func() { c.hashCandidate("allocs", label, 0) }); n > 3*tries {
				t.Errorf("%s label %x: %v allocations over %v tries, bound is 3 per try", row.name, label, n, tries)
			}
		}
	}
}
