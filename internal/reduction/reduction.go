// Package reduction is an executable rendering of the paper's APPENDIX:
// the random-oracle simulator 𝒜₂ that turns any adversary 𝒜₃ — one who
// uses other key updates to decrypt a ciphertext before its release
// time — into a solver for the (BDH-style) pairing problem
//
//	given xG, yG, Q ∈ G1, find ê(G, Q)^{xy}.
//
// 𝒜₂ plays 𝒜₃'s entire environment:
//
//   - H1 queries: for a fresh label it flips a δ-biased coin and answers
//     bᵢ·Q (probability δ, "planted") or bᵢ·G (probability 1−δ,
//     "answerable"), remembering (label, bᵢ, kind). 𝒜₃ cannot
//     distinguish either from a random point.
//   - Update queries: for an answerable label the simulator returns
//     bᵢ·(yG) = y·H1(label) computed WITHOUT knowing y; for a planted
//     label it must abort — it cannot sign those.
//   - The challenge: for a label the adversary chose, the simulator
//     hands out C = ⟨xG, X⟩ with X random. If the challenge label is
//     answerable the run aborts (nothing to extract); if planted,
//     whatever H2 query a successful 𝒜₃ makes to unmask X must contain
//     W = ê(G, Q)^{xyb}, from which 𝒜₂ recovers ê(G, Q)^{xy} = W^{1/b}.
//
// A run survives with probability δ(1−δ)^{q_u} for q_u update queries —
// the exact bookkeeping of the appendix — which the package's tests
// check empirically, along with end-to-end extraction soundness against
// a maximally successful adversary.
package reduction

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// ErrAbort is returned when the simulation cannot continue (an update
// query for a planted label, or a challenge on an answerable one). In
// the proof this is the δ(1−δ)^{q_u} failure branch.
var ErrAbort = errors.New("reduction: simulation aborted (coin pattern does not fit this run)")

// kind tags how a label's H1 value was programmed.
type kind int

const (
	answerable kind = iota // H1(T) = b·G — update queries can be served
	planted                // H1(T) = b·Q — the challenge can be embedded
)

// h1Entry is one programmed oracle point.
type h1Entry struct {
	b    *big.Int
	kind kind
	pt   curve.Point
}

// Simulator is 𝒜₂: it holds the problem instance and the full
// random-oracle state. Not safe for concurrent use (an adversary is a
// single interactive party).
type Simulator struct {
	set   *params.Set
	delta int // planted-coin probability in 1/256ths

	xG, yG, q curve.Point // the problem instance (x, y unknown to 𝒜₂)

	rng io.Reader
	h1  map[string]h1Entry
	h2  []backend.GT // inputs of every H2 query the adversary made
}

// NewSimulator creates 𝒜₂ for the instance (xG, yG, Q) with planting
// probability delta256/256.
func NewSimulator(set *params.Set, xG, yG, q curve.Point, delta256 int, rng io.Reader) (*Simulator, error) {
	if set.Asymmetric() {
		// The appendix states its problem in one group — given xG, yG,
		// Q ∈ G1 find ê(G, Q)^{xy} — and the simulator programs H1 with
		// both b·G and b·Q: generator and oracle range must coincide.
		return nil, backend.ErrSymmetricOnly
	}
	if delta256 < 1 || delta256 > 255 {
		return nil, fmt.Errorf("reduction: delta256 must be in [1,255], got %d", delta256)
	}
	if rng == nil {
		rng = rand.Reader
	}
	return &Simulator{
		set:   set,
		delta: delta256,
		xG:    xG,
		yG:    yG,
		q:     q,
		rng:   rng,
		h1:    make(map[string]h1Entry),
	}, nil
}

// H1 answers (and records) a random-oracle query for a label. Repeated
// queries return the same point, as a real oracle would.
func (s *Simulator) H1(label string) (curve.Point, error) {
	if e, ok := s.h1[label]; ok {
		return e.pt, nil
	}
	b, err := s.set.B.RandScalar(s.rng)
	if err != nil {
		return curve.Point{}, err
	}
	var coin [1]byte
	if _, err := io.ReadFull(s.rng, coin[:]); err != nil {
		return curve.Point{}, err
	}
	e := h1Entry{b: b}
	if int(coin[0]) < s.delta {
		e.kind = planted
		e.pt = s.set.B.ScalarMult(backend.G2, b, s.q)
	} else {
		e.kind = answerable
		e.pt = s.set.B.ScalarMult(backend.G2, b, s.set.G)
	}
	s.h1[label] = e
	return e.pt, nil
}

// Update serves 𝒜₃'s key-update query for a label: y·H1(label), which
// the simulator can produce exactly when the label is answerable
// (b·yG); planted labels abort the run.
func (s *Simulator) Update(label string) (core.KeyUpdate, error) {
	if _, err := s.H1(label); err != nil {
		return core.KeyUpdate{}, err
	}
	e := s.h1[label]
	if e.kind == planted {
		return core.KeyUpdate{}, fmt.Errorf("%w: update query on planted label %q", ErrAbort, label)
	}
	return core.KeyUpdate{Label: label, Point: s.set.B.ScalarMult(backend.G2, e.b, s.yG)}, nil
}

// Challenge embeds the problem instance into a ciphertext for the
// adversary's chosen label: C = ⟨xG, X⟩ with X uniformly random (the
// simulator does not know — and never needs — the "plaintext"). Aborts
// unless the label was planted.
func (s *Simulator) Challenge(label string, msgLen int) (*core.Ciphertext, error) {
	if _, err := s.H1(label); err != nil {
		return nil, err
	}
	e := s.h1[label]
	if e.kind != planted {
		return nil, fmt.Errorf("%w: challenge label %q is not planted", ErrAbort, label)
	}
	x := make([]byte, msgLen)
	if _, err := io.ReadFull(s.rng, x); err != nil {
		return nil, err
	}
	return &core.Ciphertext{U: s.xG.Clone(), V: x}, nil
}

// H2 answers (and records) the adversary's H2 queries. Consistency with
// the scheme's real H2 lets an adversary that genuinely computes the
// pairing value unmask the challenge — and hands its input to 𝒜₂.
func (s *Simulator) H2(k backend.GT, n int) []byte {
	s.h2 = append(s.h2, k)
	return rohash.Expand("TRE-H2", s.set.B.GTBytes(k), n)
}

// ExtractCandidates turns the recorded H2 inputs into BDH candidates
// for the challenge label: each query W yields W^{1/b}, and if 𝒜₃
// succeeded, one of them equals ê(G, Q)^{xy}. (The paper picks one at
// random; returning all candidates loses nothing and simplifies the
// caller, which can test each against its verification relation.)
func (s *Simulator) ExtractCandidates(label string) ([]backend.GT, error) {
	e, ok := s.h1[label]
	if !ok || e.kind != planted {
		return nil, fmt.Errorf("%w: no planted challenge for %q", ErrAbort, label)
	}
	bInv := new(big.Int).ModInverse(e.b, s.set.Q)
	if bInv == nil {
		return nil, errors.New("reduction: non-invertible b (impossible for b in [1,q-1])")
	}
	out := make([]backend.GT, len(s.h2))
	for i, w := range s.h2 {
		out[i] = s.set.B.GTExpUnitary(w, bInv)
	}
	return out, nil
}

// Kind reports how a label was programmed (tests and diagnostics).
func (s *Simulator) Kind(label string) (isPlanted, known bool) {
	e, ok := s.h1[label]
	if !ok {
		return false, false
	}
	return e.kind == planted, true
}
