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
// stays on limbs (GT is the 2n-limb vector A ‖ B) until GTBytes encodes it. The
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
	"fmt"
	"math/big"

	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
	"timedrelease/internal/parallel"
)

// GT is the target group, the order-q subgroup of F_{p²}*: a + b·i as
// one 2n-limb vector A ‖ B, which backend.GT carries unchanged. A GT
// value returned by this package is never written again, so values may
// be shared across goroutines (core.Encryptor caches its bases).
type GT = ff.MontElem

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

// elem returns the F_{p²} view of x's two halves, panicking on a value
// of another width: one of another curve or backend.
func (pr *Pairing) elem(x GT) ff.Fp2MontElem {
	n := pr.m.Limbs()
	if len(x) != 2*n {
		panic(fmt.Sprintf("pairing: a %d-limb GT value in a %d-limb target group", len(x), 2*n))
	}
	return ff.Fp2MontElem{A: x[:n:n], B: x[n:]}
}

// own copies an arena-held value into a fresh GT the caller keeps.
func (pr *Pairing) own(x ff.Fp2MontElem) GT {
	return append(append(make(GT, 0, 2*len(x.A)), x.A...), x.B...)
}

// limbs returns p's coordinates, panicking on a point of another width:
// one of another curve or backend.
func (pr *Pairing) limbs(p curve.Point) (x, y ff.MontElem) {
	x, y = p.Limbs()
	if n := pr.m.Limbs(); len(x) != n || len(y) != n {
		panic(fmt.Sprintf("pairing: a point with %d-limb coordinates on a %d-limb curve", len(x), n))
	}
	return x, y
}

// Pair computes ê(P, Q): the projective (inversion-free) Miller loop
// and the final exponentiation on limb vectors over one pooled arena.
// Both points must lie in the order-q subgroup; if either is the
// identity the result is 1.
func (pr *Pairing) Pair(p, q curve.Point) GT {
	if p.IsInfinity() || q.IsInfinity() {
		return pr.GTOne()
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
	return pr.own(pr.finalExpMontIn(pr.elem(f), a))
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
	millers := make([]GT, len(pairs)) // nil where a factor is 1
	work := func(i int) {
		pq := pairs[i]
		if pq.P.IsInfinity() || pq.Q.IsInfinity() {
			return
		}
		// Each worker holds its own pooled arena for the loop's
		// temporaries; the Miller value must outlive it, so it is
		// copied out before release.
		a := pr.m.GetArena()
		millers[i] = pr.own(pr.millerMontIn(pq.P, pq.Q, a))
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
		if m != nil {
			e2m.MulInto(&acc, acc, pr.elem(m), s)
		}
	}
	return pr.own(pr.finalExpMontIn(acc, a))
}

// SamePairing reports whether ê(a1, b1) == ê(a2, b2), evaluated as
// conj(f₁)·f₂ == 1 for the two Miller values under one shared final
// exponentiation: conjugation is the p-power Frobenius of F_{p²}, and on
// the unitary target group x^p = x⁻¹, so it inverts ê(a1, b1) in place
// of a negated point. The two Miller loops fan out to the worker pool
// and write their values into slots of one arena, so only the fan-out
// reaches the heap. This is the workhorse behind key-update
// verification and public-key well-formedness checks; when the first
// arguments are fixed across calls, SamePairingPrepared is faster still.
func (pr *Pairing) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	e2m := pr.e2m
	a := pr.m.GetArena()
	defer a.Release()
	f1, f2 := e2m.OneIn(a), e2m.OneIn(a) // 1 where a factor is trivial
	parallel.For(2, func(i int) {
		dst, p, q := f1, a1, b1
		if i == 1 {
			dst, p, q = f2, a2, b2
		}
		if p.IsInfinity() || q.IsInfinity() {
			return
		}
		w := pr.m.GetArena()
		e2m.Set(&dst, pr.millerMontIn(p, q, w))
		w.Release()
	})
	f := f1 // &f1 would move f1, captured above, to the heap
	e2m.ConjInto(&f, f)
	e2m.MulInto(&f, f, f2, e2m.ScratchIn(a))
	return e2m.IsOne(pr.finalExpMontIn(f, a))
}

// GTOne returns 1 ∈ GT.
func (pr *Pairing) GTOne() GT { return pr.own(pr.e2m.One()) }

// GTEqual reports whether x == y.
func (pr *Pairing) GTEqual(x, y GT) bool { return pr.e2m.Equal(pr.elem(x), pr.elem(y)) }

// GTIsOne reports whether x == 1.
func (pr *Pairing) GTIsOne(x GT) bool { return pr.e2m.IsOne(pr.elem(x)) }

// GTMul returns x·y as a fresh element.
func (pr *Pairing) GTMul(x, y GT) GT {
	a := pr.m.GetArena()
	defer a.Release()
	out := pr.e2m.ElemIn(a)
	pr.e2m.MulInto(&out, pr.elem(x), pr.elem(y), pr.e2m.ScratchIn(a))
	return pr.own(out)
}

// GTExpUnitary returns x^k for a unitary x (every GT value is) and a
// non-negative k, as a fresh element: the signed-window ladder with
// conjugation as inversion.
func (pr *Pairing) GTExpUnitary(x GT, k *big.Int) GT {
	a := pr.m.GetArena()
	defer a.Release()
	out := pr.e2m.ElemIn(a)
	pr.e2m.ExpUnitaryWNAFInto(&out, pr.elem(x), ff.UnitaryWNAF(k), pr.e2m.ScratchIn(a), a)
	return pr.own(out)
}

// GTBytes returns the fixed-width encoding Field.Bytes(A) ‖ Field.Bytes(B)
// of x, the input of every H2 mask.
func (pr *Pairing) GTBytes(x GT) []byte {
	f, v := pr.C.F, pr.elem(x)
	return f.AppendMontBytes(f.AppendMontBytes(make([]byte, 0, 2*f.ByteLen()), v.A), v.B)
}
