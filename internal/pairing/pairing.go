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
// Every entry point — Pair, PairPrepared, PairProduct, SamePairing*,
// FinalExp and the GT* operations — runs that projective loop and a
// Frobenius final exponentiation on Montgomery limb vectors (mont.go,
// which also carries the line derivations), and a target-group value
// stays on limbs (GT is ff.Fp2MontElem) until GTBytes encodes it. The
// oracle is the textbook algorithm in internal/ref — affine math/big
// arithmetic with one inversion per step and a plain f^((p²−1)/q)
// exponentiation — and the differential tests hold every entry point
// here to it.
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

// GT is the target group: the order-q subgroup of F_{p²}*, on limbs. A
// GT value returned by this package is never written again — the GT*
// operations return fresh elements — so values may be shared across
// goroutines (core.Encryptor caches its bases).
type GT = ff.Fp2MontElem

// Pairing binds a curve context to its extension field and caches the
// Miller-loop schedule and the recoded final-exponentiation cofactor.
type Pairing struct {
	C *curve.Curve

	// schedule[k] reports whether Miller iteration k (processing bit
	// BitLen-2-k of q) performs an addition step after its doubling
	// step. Precomputed once here instead of re-walking ord.Bit(i) in
	// every loop.
	schedule []bool

	// m and e2m are the limb contexts every entry point runs on
	// end-to-end; hDigits is the signed-window recoding of the cofactor
	// h, computed once so the final exponentiation never touches big.Int
	// arithmetic.
	m       *ff.Mont
	e2m     *ff.Fp2Mont
	hDigits []int8
}

// New returns a pairing context for c. curve.New has checked
// p ≡ 3 (mod 4), so i² = −1 defines F_{p²}.
func New(c *curve.Curve) (*Pairing, error) {
	if c == nil {
		return nil, errors.New("pairing: nil curve")
	}
	ord := c.Q
	schedule := make([]bool, 0, ord.BitLen()-1)
	for i := ord.BitLen() - 2; i >= 0; i-- {
		schedule = append(schedule, ord.Bit(i) == 1)
	}
	return &Pairing{
		C:        c,
		schedule: schedule,
		m:        c.F.Mont(),
		e2m:      &ff.Fp2Mont{M: c.F.Mont()},
		hDigits:  ff.UnitaryWNAF(c.H),
	}, nil
}

// own copies an arena-held value into a fresh GT the caller keeps.
func (pr *Pairing) own(x ff.Fp2MontElem) GT {
	out := pr.e2m.NewElem()
	pr.e2m.Set(&out, x)
	return out
}

// Pair computes ê(P, Q): the projective (inversion-free) Miller loop
// and the final exponentiation on limb vectors over one pooled arena.
// Both points must lie in the order-q subgroup; if either is the
// identity the result is 1.
func (pr *Pairing) Pair(p, q curve.Point) GT {
	if p.IsInfinity() || q.IsInfinity() {
		return pr.e2m.One()
	}
	a := pr.m.GetArena()
	defer a.Release()
	return pr.own(pr.finalExpMontIn(pr.millerMontIn(p, q, a), a))
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
	return pr.own(pr.finalExpMontIn(f, a))
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
	return pr.own(pr.finalExpMontIn(acc, a))
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
	return pr.e2m.IsOne(gt)
}

// GTOne returns 1 ∈ GT.
func (pr *Pairing) GTOne() GT { return pr.e2m.One() }

// GTEqual reports whether x == y.
func (pr *Pairing) GTEqual(x, y GT) bool { return pr.e2m.Equal(x, y) }

// GTIsOne reports whether x == 1.
func (pr *Pairing) GTIsOne(x GT) bool { return pr.e2m.IsOne(x) }

// GTMul returns x·y as a fresh element.
func (pr *Pairing) GTMul(x, y GT) GT {
	a := pr.m.GetArena()
	defer a.Release()
	out := pr.e2m.NewElem()
	pr.e2m.MulInto(&out, x, y, pr.e2m.ScratchIn(a))
	return out
}

// GTExpUnitary returns x^k for a unitary x (every GT value is) and a
// non-negative k, as a fresh element: the signed-window ladder with
// conjugation as inversion.
func (pr *Pairing) GTExpUnitary(x GT, k *big.Int) GT {
	a := pr.m.GetArena()
	defer a.Release()
	out := pr.e2m.NewElem()
	pr.e2m.ExpUnitaryWNAFInto(&out, x, ff.UnitaryWNAF(k), pr.e2m.ScratchIn(a), a)
	return out
}

// GTBytes returns the fixed-width encoding Field.Bytes(A) ‖ Field.Bytes(B)
// of x, the input of every H2 mask.
func (pr *Pairing) GTBytes(x GT) []byte {
	f := pr.C.F
	return f.AppendMontBytes(f.AppendMontBytes(make([]byte, 0, 2*f.ByteLen()), x.A), x.B)
}
