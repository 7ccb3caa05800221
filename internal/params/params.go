// Package params generates and validates the public parameters of the
// Type-1 pairing setting: primes p ≡ 3 (mod 4) and q with q·h = p+1,
// defining the curve y² = x³ + x over F_p with an order-q Gap
// Diffie-Hellman subgroup (paper §4).
//
// A parameter set is fully determined by (p, q): the cofactor is
// h = (p+1)/q and the canonical generator is derived by hashing the
// primes onto the subgroup, so parameter sets are self-contained and
// anyone can re-derive and audit them. Embedded presets cover a fast
// test size and the 2005-era through modern production sizes, plus the
// Type-3 BLS12-381 setting.
//
// A Set hands out its pairing setting only as a backend.Backend (Set.B):
// this package and internal/backend are the two that name a curve or a
// pairing, and everything above them goes through that interface.
package params

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls381"
	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
	"timedrelease/internal/pairing"
	"timedrelease/internal/rohash"
)

// primalityRounds is the Miller-Rabin round count used for generation
// and validation; combined with big.Int's Baillie-PSW test this gives a
// negligible error probability.
const primalityRounds = 64

// Set is a complete, ready-to-use parameter set. All fields are
// populated by the constructors; treat them as read-only.
//
// Every set carries a pairing backend in B, and B is the only way to
// the group and pairing operations: no field names a curve. On Type-1
// (symmetric) sets G2 == G; on asymmetric sets (BLS12-381) G/G2 are the
// distinct G1/G2 generators.
type Set struct {
	Name string   // human-readable label ("SS512", "BLS12-381", ...)
	P    *big.Int // base-field prime
	Q    *big.Int // prime order of the working subgroup
	H    *big.Int // G1 cofactor

	G  curve.Point // canonical G1 generator
	G2 curve.Point // canonical G2 generator (== G when symmetric)

	B backend.Backend // the pairing backend, never nil
}

// Asymmetric reports whether the set runs on a Type-3 backend with
// distinct groups G1 ≠ G2.
func (s *Set) Asymmetric() bool { return s.B.Asymmetric() }

// FromPQ assembles a parameter set from the two primes, deriving the
// cofactor, curve, pairing and canonical generator. Structural relations
// are checked; call Validate for (slower) primality checks.
func FromPQ(name string, p, q *big.Int) (*Set, error) {
	if p == nil || q == nil {
		return nil, errors.New("params: nil prime")
	}
	pp1 := new(big.Int).Add(p, big.NewInt(1))
	h, rem := new(big.Int).QuoRem(pp1, q, new(big.Int))
	if rem.Sign() != 0 {
		return nil, errors.New("params: q does not divide p+1")
	}
	f, err := ff.NewField(p)
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}
	c, err := curve.New(f, q, h)
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}
	pr, err := pairing.New(c)
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}
	s := &Set{Name: name, P: new(big.Int).Set(p), Q: new(big.Int).Set(q), H: h}
	s.G = c.HashToGroup(generatorDomain, s.generatorSeed())
	if s.G.IsInfinity() {
		return nil, errors.New("params: derived generator is the identity")
	}
	s.G2 = s.G
	s.B = backend.NewSymmetric(name, c, pr, s.G)
	return s, nil
}

// fromBLS12381 assembles the BLS12-381 parameter set around the
// Type-3 backend. The structural fields mirror the backend's curve
// constants.
func fromBLS12381(name string) *Set {
	b := bls381.New()
	return &Set{
		Name: name,
		P:    b.FieldPrime(),
		Q:    b.Order(),
		H:    b.CofactorG1(),
		G:    b.Generator(backend.G1),
		G2:   b.Generator(backend.G2),
		B:    b,
	}
}

// generatorDomain and generatorSeed fix the canonical Type-1 generator:
// (p, q) hashed onto the subgroup, so anyone can recompute it from the
// primes alone.
const generatorDomain = "params"

func (s *Set) generatorSeed() []byte {
	return rohash.Concat([]byte("generator"), s.P.Bytes(), s.Q.Bytes())
}

// Validate performs the full (slow) audit of a parameter set: primality
// of p and q, the congruence and divisibility relations, that q is not a
// factor of the cofactor, and that the canonical generator matches.
func (s *Set) Validate() error {
	if s.Asymmetric() {
		// The curve constants are compile-time fixed; audit the live
		// generators instead of the Type-1 structural relations.
		for _, g := range []backend.Group{backend.G1, backend.G2} {
			gen := s.B.Generator(g)
			if gen.IsInfinity() || !s.B.InSubgroup(g, gen) {
				return fmt.Errorf("params: %v generator fails subgroup membership", g)
			}
		}
		if !s.Q.ProbablyPrime(primalityRounds) {
			return errors.New("params: group order is not prime")
		}
		return nil
	}
	if !s.P.ProbablyPrime(primalityRounds) {
		return errors.New("params: p is not prime")
	}
	if !s.Q.ProbablyPrime(primalityRounds) {
		return errors.New("params: q is not prime")
	}
	if new(big.Int).Mod(s.P, big.NewInt(4)).Int64() != 3 {
		return errors.New("params: p ≢ 3 (mod 4)")
	}
	pp1 := new(big.Int).Add(s.P, big.NewInt(1))
	if new(big.Int).Mul(s.Q, s.H).Cmp(pp1) != 0 {
		return errors.New("params: q·h ≠ p+1")
	}
	if new(big.Int).Mod(s.H, s.Q).Sign() == 0 {
		return errors.New("params: q² divides p+1")
	}
	if !s.B.InSubgroup(backend.G1, s.G) {
		return errors.New("params: generator not in subgroup")
	}
	if !s.B.Equal(backend.G1, s.G, s.B.HashToG2(generatorDomain, s.generatorSeed())) {
		return errors.New("params: generator is not the canonical derivation")
	}
	return nil
}

// Generate creates a fresh parameter set with a pBits-bit p and a
// qBits-bit q. It samples q prime, then cofactors h ≡ 0 (mod 4) until
// p = h·q − 1 is a pBits-bit prime (p ≡ 3 mod 4 holds by construction
// since q is odd and 4 | h).
func Generate(rng io.Reader, pBits, qBits int) (*Set, error) {
	if qBits < 16 || pBits < qBits+8 {
		return nil, fmt.Errorf("params: unusable sizes pBits=%d qBits=%d", pBits, qBits)
	}
	// A size the field layer refuses must fail here, not after the prime
	// search, and the limit is ff's to state (it exports no constant for
	// it): probe NewField with 2^(pBits−1)+1. That modulus is deliberately
	// NOT a prime — NewField checks parity and width only — and the field
	// is discarded.
	if _, err := ff.NewField(new(big.Int).SetBit(big.NewInt(1), pBits-1, 1)); err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}
	rng = orRand(rng)
	q, err := randPrime(rng, qBits)
	if err != nil {
		return nil, err
	}
	hBits := pBits - qBits
	for tries := 0; tries < 100000; tries++ {
		h, err := randBits(rng, hBits)
		if err != nil {
			return nil, err
		}
		h.SetBit(h, 0, 0)
		h.SetBit(h, 1, 0) // h ≡ 0 (mod 4) ⇒ p = hq−1 ≡ 3 (mod 4)
		if h.BitLen() < 3 {
			continue
		}
		p := new(big.Int).Mul(h, q)
		p.Sub(p, big.NewInt(1))
		if p.BitLen() != pBits {
			continue
		}
		if !p.ProbablyPrime(primalityRounds) {
			continue
		}
		if new(big.Int).Mod(h, q).Sign() == 0 {
			continue
		}
		return FromPQ(fmt.Sprintf("gen-%d-%d", pBits, qBits), p, q)
	}
	return nil, errors.New("params: no prime found (try different sizes)")
}

// Marshal renders the set in a small self-describing text format.
// Type-1 sets keep the historical name/p/q encoding byte-for-byte (so
// fingerprints of existing armored files stay valid); asymmetric sets
// add a backend= line, which also makes their fingerprint distinct
// from every Type-1 set's.
func (s *Set) Marshal() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "tre-params-v1\nname=%s\n", s.Name)
	if s.Asymmetric() {
		fmt.Fprintf(&b, "backend=%s\n", s.B.Name())
	}
	fmt.Fprintf(&b, "p=%s\nq=%s\n", s.P.Text(16), s.Q.Text(16))
	return b.Bytes()
}

// Unmarshal parses the format produced by Marshal and rebuilds the set
// (including structural checks).
func Unmarshal(data []byte) (*Set, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() || sc.Text() != "tre-params-v1" {
		return nil, errors.New("params: bad header")
	}
	kv := map[string]string{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("params: malformed line %q", line)
		}
		kv[k] = v
	}
	p, ok := new(big.Int).SetString(kv["p"], 16)
	if !ok {
		return nil, errors.New("params: bad p")
	}
	q, ok := new(big.Int).SetString(kv["q"], 16)
	if !ok {
		return nil, errors.New("params: bad q")
	}
	if bk, ok := kv["backend"]; ok {
		if bk != bls381.BackendName {
			return nil, fmt.Errorf("params: unknown backend %q", bk)
		}
		s, err := Preset(PresetBLS12381)
		if err != nil {
			return nil, err
		}
		if p.Cmp(s.P) != 0 || q.Cmp(s.Q) != 0 {
			return nil, errors.New("params: backend constants do not match")
		}
		return s, nil
	}
	return FromPQ(kv["name"], p, q)
}
