// Package pairing implements the modified Tate pairing
//
//	ê : G1 × G1 → G2 ⊂ F_{p²}*,  ê(P, Q) = f_{q,P}(ψ(Q))^((p²−1)/q)
//
// on the supersingular curve of package curve, where
// ψ(x, y) = (−x, i·y) is the distortion map into E(F_{p²}). ψ makes the
// pairing symmetric and non-degenerate on the single subgroup G1 — the
// Type-1 setting the paper's constructions require (ê(P, P) ≠ 1).
//
// Miller's algorithm is run with denominator elimination: every vertical
// line evaluated at ψ(Q) = (−x_Q, i·y_Q) has value −x_Q − x ∈ F_p, and
// the final exponentiation (p²−1)/q = (p−1)·h kills all of F_p*, so
// vertical-line factors can be skipped entirely. The same argument
// licenses the projective Miller loop: line values may be scaled by any
// non-zero F_p factor, so the loop runs in Jacobian coordinates with
// zero per-iteration inversions.
//
// There are exactly two implementations. Production — Pair,
// PairPrepared, PairProduct, SamePairing*, FinalExp — is that
// projective loop and a Frobenius final exponentiation on Montgomery
// limb vectors (mont.go, which also carries the line derivations). The
// oracle — MillerAffine, PairAffine — is the textbook algorithm in this
// file: affine math/big arithmetic with one inversion per step and a
// plain f^((p²−1)/q) exponentiation. It shares neither formulas nor
// number representation with production, and the differential tests
// hold every production entry point to it (à la curve.ScalarMultAffine).
//
// For pairings whose first argument is fixed across many evaluations
// (update verification, BLS verification, user-key well-formedness
// checks) Precompute stores the full schedule of line coefficients once;
// PairPrepared then costs one field multiplication per line. See
// prepared.go and docs/PAIRING.md.
package pairing

import (
	"errors"
	"math/big"

	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
	"timedrelease/internal/parallel"
)

var (
	big1 = big.NewInt(1)
	big3 = big.NewInt(3)
)

// GT is the target group: the order-q subgroup of F_{p²}*.
type GT = ff.Fp2Elem

// Pairing binds a curve context to its extension field and caches the
// final exponentiation exponent and the Miller-loop schedule.
type Pairing struct {
	C  *curve.Curve
	E2 *ff.Fp2

	finalExp *big.Int // (p²−1)/q = (p−1)·h, the oracle's exponent

	// schedule[k] reports whether Miller iteration k (processing bit
	// BitLen-2-k of q) performs an addition step after its doubling
	// step. Precomputed once here instead of re-walking ord.Bit(i) in
	// every loop.
	schedule []bool

	// m and e2m are the limb contexts every production entry point runs
	// on end-to-end; hDigits is the signed-window recoding of the
	// cofactor h, computed once so the final exponentiation never
	// touches big.Int arithmetic.
	m       *ff.Mont
	e2m     *ff.Fp2Mont
	hDigits []int8
}

// New returns a pairing context for c.
func New(c *curve.Curve) (*Pairing, error) {
	if c == nil {
		return nil, errors.New("pairing: nil curve")
	}
	e2, err := ff.NewFp2(c.F)
	if err != nil {
		return nil, err
	}
	pm1 := new(big.Int).Sub(c.F.P(), big.NewInt(1))
	ord := c.Q
	schedule := make([]bool, 0, ord.BitLen()-1)
	for i := ord.BitLen() - 2; i >= 0; i-- {
		schedule = append(schedule, ord.Bit(i) == 1)
	}
	return &Pairing{
		C:        c,
		E2:       e2,
		finalExp: new(big.Int).Mul(pm1, c.H),
		schedule: schedule,
		m:        c.F.Mont(),
		e2m:      e2.Mont(),
		hDigits:  ff.UnitaryWNAF(c.H),
	}, nil
}

// Pair computes ê(P, Q): the projective (inversion-free) Miller loop
// and the final exponentiation on limb vectors over one pooled arena,
// with a single conversion at the boundary. Both points must lie in the
// order-q subgroup; if either is the identity the result is 1.
func (pr *Pairing) Pair(p, q curve.Point) GT {
	if p.IsInfinity() || q.IsInfinity() {
		return pr.E2.One()
	}
	a := pr.m.GetArena()
	defer a.Release()
	return pr.e2m.FromMont(pr.finalExpMontIn(pr.millerMontIn(p, q, a), a))
}

// PairAffine is the oracle for every production pairing: the affine
// Miller loop followed by the plain exponentiation f^((p²−1)/q), all on
// math/big. It returns the same value as Pair and exists for
// differential testing and the E4/pairing-bench ablations.
func (pr *Pairing) PairAffine(p, q curve.Point) GT {
	if p.IsInfinity() || q.IsInfinity() {
		return pr.E2.One()
	}
	return pr.E2.ExpBig(pr.MillerAffine(p, q), pr.finalExp)
}

// FinalExp raises an unreduced Miller value to (p²−1)/q, mapping it into
// the order-q target group. The (p−1) factor is applied via the
// Frobenius identity z^(p−1) = conj(z)·z⁻¹ — one conjugation plus one
// F_{p²} inversion instead of a |p|-bit exponentiation — leaving an
// exponentiation by the (much smaller) cofactor h; since z^(p−1) is
// unitary (norm N(z)^(p−1) = 1), that step runs the signed-window
// conjugation-as-inversion ladder. Because x ↦ x^((p²−1)/q) kills every
// element of F_p^*, Miller values that differ by a non-zero F_p factor —
// as the affine, projective and prepared loops' values do — map to the
// same target-group element.
func (pr *Pairing) FinalExp(f GT) GT {
	a := pr.m.GetArena()
	defer a.Release()
	fm := pr.e2m.ElemIn(a)
	pr.e2m.ToMont(&fm, f)
	return pr.e2m.FromMont(pr.finalExpMontIn(fm, a))
}

// MillerAffine evaluates the Miller function f_{q,P} at ψ(Q) in affine
// coordinates, without the final exponentiation. P and Q must be
// non-identity subgroup points. This is the oracle's loop: one field
// inversion per doubling/addition step. The production loop
// (millerMontIn) computes a value equal up to an F_p^* factor with no
// inversions at all; the two agree exactly after the final
// exponentiation.
func (pr *Pairing) MillerAffine(p, q curve.Point) GT {
	e2 := pr.E2
	f := e2.One()
	v := p
	for _, addBit := range pr.schedule {
		f = e2.Sqr(f)
		var g GT
		v, g = pr.lineDouble(v, q)
		f = e2.Mul(f, g)
		if addBit {
			v, g = pr.lineAdd(v, p, q)
			f = e2.Mul(f, g)
		}
	}
	return f
}

// lineEval evaluates the (non-vertical) line of slope λ through the
// affine point a, at the distorted point ψ(Q) = (−x_Q, i·y_Q):
//
//	g = i·y_Q − λ·(−x_Q) − (y_a − λ·x_a)
//	  = (λ·(x_Q + x_a) − y_a) + y_Q·i  ∈ F_{p²}.
//
// Since q is odd and Q has order q, y_Q ≠ 0, so g ≠ 0 always — the
// Miller value never collapses to zero. The returned element shares
// q.Y; callers consume it immediately without mutation.
func (pr *Pairing) lineEval(a, q curve.Point, lambda *big.Int) GT {
	fp := pr.C.F
	re := fp.Sub(fp.Mul(lambda, fp.Add(q.X, a.X)), a.Y)
	return ff.Fp2Elem{A: re, B: q.Y}
}

// lineDouble returns (2v, g) where g is the tangent-line factor at v
// evaluated at ψ(q). Vertical tangents (y=0) and the identity contribute
// the factor 1 under denominator elimination.
func (pr *Pairing) lineDouble(v, q curve.Point) (curve.Point, GT) {
	if v.IsInfinity() {
		return v, pr.E2.One()
	}
	if v.Y.Sign() == 0 {
		return curve.Infinity(), pr.E2.One()
	}
	fp := pr.C.F
	num := fp.Add(fp.Mul(big3, fp.Sqr(v.X)), big1)
	lambda := fp.Mul(num, fp.Inv(fp.Double(v.Y)))
	g := pr.lineEval(v, q, lambda)
	return pr.C.Double(v), g
}

// lineAdd returns (v+p, g) where g is the chord-line factor through v
// and p evaluated at ψ(q). The vertical chord v + (−v) contributes 1.
func (pr *Pairing) lineAdd(v, p, q curve.Point) (curve.Point, GT) {
	if v.IsInfinity() {
		return p, pr.E2.One()
	}
	if p.IsInfinity() {
		return v, pr.E2.One()
	}
	if v.X.Cmp(p.X) == 0 {
		if v.Y.Cmp(p.Y) == 0 {
			// Chord degenerates to the tangent; only reachable if the loop
			// ever adds a point to itself, which the Miller schedule avoids.
			return pr.lineDouble(v, q)
		}
		return curve.Infinity(), pr.E2.One()
	}
	fp := pr.C.F
	lambda := fp.Mul(fp.Sub(p.Y, v.Y), fp.Inv(fp.Sub(p.X, v.X)))
	g := pr.lineEval(v, q, lambda)
	return pr.C.Add(v, p), g
}

// PointPair is one (P, Q) factor of a pairing product.
type PointPair struct {
	P, Q curve.Point
}

// parallelThreshold is the minimum number of non-trivial factors before
// PairProduct fans Miller loops out to the worker pool; below it the
// goroutine overhead is not worth a loop that short.
const parallelThreshold = 2

// PairProduct computes Π ê(Pᵢ, Qᵢ) with a single shared final
// exponentiation — the optimisation used by multi-server decryption
// (paper §5.3.5) and pairing-equation checks. With more than one factor
// the Miller loops run across a GOMAXPROCS-bounded worker pool; the
// values are then merged in index order (multiplication in F_{p²} is
// commutative, so the result is bit-identical to the sequential loop).
func (pr *Pairing) PairProduct(pairs []PointPair) GT {
	e2m := pr.e2m
	millers := make([]ff.Fp2MontElem, len(pairs))
	work := func(i int) {
		pq := pairs[i]
		if pq.P.IsInfinity() || pq.Q.IsInfinity() {
			millers[i] = e2m.One()
			return
		}
		// Each worker holds its own pooled arena for the loop's
		// temporaries; the Miller value must outlive it, so it is
		// copied into a caller-owned element before release.
		a := pr.m.GetArena()
		f := pr.millerMontIn(pq.P, pq.Q, a)
		out := e2m.NewElem()
		e2m.Set(&out, f)
		millers[i] = out
		a.Release()
	}
	if len(pairs) >= parallelThreshold {
		parallel.For(len(pairs), work)
	} else {
		for i := range pairs {
			work(i)
		}
	}
	a := pr.m.GetArena()
	defer a.Release()
	acc := e2m.OneIn(a)
	s := e2m.ScratchIn(a)
	for _, m := range millers {
		e2m.MulInto(&acc, acc, m, s)
	}
	return e2m.FromMont(pr.finalExpMontIn(acc, a))
}

// SamePairing reports whether ê(a1, b1) == ê(a2, b2), evaluated as a
// single product ê(−a1, b1)·ê(a2, b2) == 1 so only one final
// exponentiation is needed. This is the workhorse behind key-update
// verification and public-key well-formedness checks; when the first
// arguments are fixed across calls, SamePairingPrepared is faster still.
func (pr *Pairing) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	gt := pr.PairProduct([]PointPair{
		{P: pr.C.Neg(a1), Q: b1},
		{P: a2, Q: b2},
	})
	return pr.E2.IsOne(gt)
}
