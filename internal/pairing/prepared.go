package pairing

import (
	"timedrelease/internal/curve"
	"timedrelease/internal/ff"
)

// lineCoeff is one precomputed Miller line in normalised affine form,
// in the Montgomery domain: evaluated at ψ(Q) the line's value is
//
//	g = λ·x_Q + μ + y_Q·i.
//
// vertical marks steps that contribute the factor 1 under denominator
// elimination (the coefficients are then nil).
type lineCoeff struct {
	lambda, mu ff.MontElem
	vertical   bool
}

// preparedStep is one iteration of the fixed Miller schedule: the
// doubling line, plus the addition line on iterations whose schedule
// bit is set.
type preparedStep struct {
	dbl    lineCoeff
	hasAdd bool
	add    lineCoeff
}

// PreparedPoint stores the full schedule of Miller line coefficients
// for a fixed first pairing argument P. The walk of V = kP, the slopes,
// and the vertical-step pattern depend only on P and the group order,
// so they are computed once here; PairPrepared then evaluates each
// stored line at a fresh Q with a single field multiplication — no
// point arithmetic and no inversions at all.
//
// A PreparedPoint is immutable after construction and safe for
// concurrent use by multiple goroutines. Typical fixed arguments in
// this repository: the server generator G and public key sG (update
// verification, BLS verification, user-key well-formedness checks).
type PreparedPoint struct {
	infinity bool
	steps    []preparedStep
}

// Precompute walks the Miller loop for the fixed first argument p and
// stores every line's normalised (λ, μ) coefficients. The walk itself
// runs in Jacobian coordinates on limbs; the projective denominators of
// all steps are then inverted together by Montgomery's trick on the
// same limbs (prefix products, one inversion, back-substitution), so
// preparation costs about one inversion plus one inversion-free Miller
// loop and three multiplications per line.
func (pr *Pairing) Precompute(p curve.Point) *PreparedPoint {
	if p.IsInfinity() {
		return &PreparedPoint{infinity: true}
	}
	m := pr.m
	ar := m.GetArena()
	defer ar.Release()
	px, py := pr.limbs(p)
	st := newMillerStateMontIn(m, px, py, ar)
	steps := make([]preparedStep, len(pr.schedule))

	// Record each non-vertical step's projective line (A, B, C), in
	// schedule order: λ = A/C, μ = B/C. Until the inversion below the
	// stored coefficients are the numerators A and B; line i keeps its
	// Cᵢ and the prefix product C₀·…·C(i−1), and acc runs ahead to
	// C₀·…·Cᵢ.
	var lines []*lineCoeff
	var cs, prefix []ff.MontElem
	a, b, c, acc := ar.Elem(), ar.Elem(), ar.Elem(), ar.Elem()
	m.SetOne(acc)
	record := func(lc *lineCoeff, ok bool) {
		if !ok {
			lc.vertical = true
			return
		}
		lc.lambda, lc.mu = m.NewElem(), m.NewElem()
		m.Set(lc.lambda, a)
		m.Set(lc.mu, b)
		lines = append(lines, lc)
		ci, pi := ar.Elem(), ar.Elem()
		m.Set(ci, c)
		m.Set(pi, acc)
		cs, prefix = append(cs, ci), append(prefix, pi)
		m.Mul(acc, acc, c)
	}
	for k, addBit := range pr.schedule {
		record(&steps[k].dbl, st.dbl(a, b, c))
		if addBit {
			steps[k].hasAdd = true
			record(&steps[k].add, st.add(px, py, a, b, c))
		}
	}

	// One inversion for every denominator. Walking back,
	// acc = (C₀·…·Cᵢ)⁻¹ gives Cᵢ⁻¹ = acc·prefix[i], and acc·Cᵢ steps it
	// down to i−1.
	m.Inv(acc, acc)
	for i := len(lines) - 1; i >= 0; i-- {
		m.Mul(c, acc, prefix[i])
		m.Mul(acc, acc, cs[i])
		m.Mul(lines[i].lambda, lines[i].lambda, c)
		m.Mul(lines[i].mu, lines[i].mu, c)
	}
	return &PreparedPoint{steps: steps}
}

// IsInfinity reports whether the prepared point is the group identity.
func (pp *PreparedPoint) IsInfinity() bool { return pp.infinity }

// PairPrepared computes ê(P, Q) from the precomputed schedule of P. It
// returns bit-for-bit the same value as Pair(P, Q).
func (pr *Pairing) PairPrepared(pp *PreparedPoint, q curve.Point) GT {
	if pp.infinity || q.IsInfinity() {
		return pr.GTOne()
	}
	a := pr.m.GetArena()
	defer a.Release()
	return pr.own(pr.finalExpMontIn(pr.millerPreparedMontIn(pp, q, a), a))
}

// SamePairingPrepared reports whether ê(P1, q1) == ê(P2, q2) for two
// prepared first arguments, with two table-driven Miller loops and one
// shared final exponentiation. The equality is evaluated as
// ê(P1, q1)⁻¹·ê(P2, q2) == 1, the inverse taken by conjugating the
// first Miller value as SamePairing does: the final exponentiation
// maps conj(f) = f^p to ê^p = ê⁻¹, so neither argument is negated.
func (pr *Pairing) SamePairingPrepared(p1 *PreparedPoint, q1 curve.Point, p2 *PreparedPoint, q2 curve.Point) bool {
	e2m := pr.e2m
	lhsTrivial := p1.infinity || q1.IsInfinity()
	rhsTrivial := p2.infinity || q2.IsInfinity()
	switch {
	case lhsTrivial && rhsTrivial:
		return true
	case lhsTrivial:
		return pr.GTIsOne(pr.PairPrepared(p2, q2))
	case rhsTrivial:
		return pr.GTIsOne(pr.PairPrepared(p1, q1))
	}
	a := pr.m.GetArena()
	defer a.Release()
	m := pr.millerPreparedMontIn(p1, q1, a)
	m2 := pr.millerPreparedMontIn(p2, q2, a)
	e2m.ConjInto(&m, m)
	e2m.MulInto(&m, m, m2, e2m.ScratchIn(a))
	return e2m.IsOne(pr.finalExpMontIn(m, a))
}
