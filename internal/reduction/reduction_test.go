package reduction

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// smallSet generates (once) a small parameter set so the Monte-Carlo
// tests run thousands of simulator rounds quickly.
var smallSet = sync.OnceValue(func() *params.Set {
	set, err := params.Generate(nil, 96, 48)
	if err != nil {
		panic(err)
	}
	return set
})

func TestH1ConsistentAndIndistinguishable(t *testing.T) {
	set := smallSet()
	x, _ := set.B.RandScalar(nil)
	y, _ := set.B.RandScalar(nil)
	z, _ := set.B.RandScalar(nil)
	sim, err := NewSimulator(set,
		set.B.ScalarMult(backend.G1, x, set.G),
		set.B.ScalarMult(backend.G1, y, set.G),
		set.B.ScalarMult(backend.G1, z, set.G),
		64, nil) // δ = 0.25
	if err != nil {
		t.Fatal(err)
	}

	plantedCount := 0
	const n = 400
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("label-%d", i)
		p1, err := sim.H1(label)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := sim.H1(label)
		if err != nil {
			t.Fatal(err)
		}
		if !set.B.Equal(backend.G2, p1, p2) {
			t.Fatal("oracle must be consistent")
		}
		if !set.B.InSubgroup(backend.G2, p1) || p1.IsInfinity() {
			t.Fatal("oracle outputs must be valid subgroup points")
		}
		if isPlanted, _ := sim.Kind(label); isPlanted {
			plantedCount++
		}
	}
	// δ = 1/4: expect ~100 of 400, stddev ≈ 8.7; allow ±5σ.
	if plantedCount < 56 || plantedCount > 144 {
		t.Fatalf("planted count %d of %d wildly off δ=0.25", plantedCount, n)
	}
}

func TestUpdatesForAnswerableLabelsAreCorrectSignatures(t *testing.T) {
	// What 𝒜₂ serves must be indistinguishable from real updates:
	// y·H1(label) exactly, verifiable with the real pairing equation.
	set := smallSet()
	x, _ := set.B.RandScalar(nil)
	y, _ := set.B.RandScalar(nil)
	z, _ := set.B.RandScalar(nil)
	yG := set.B.ScalarMult(backend.G1, y, set.G)
	sim, err := NewSimulator(set, set.B.ScalarMult(backend.G1, x, set.G), yG, set.B.ScalarMult(backend.G1, z, set.G), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := 0; served < 10 && i < 200; i++ {
		label := fmt.Sprintf("u-%d", i)
		upd, err := sim.Update(label)
		if errors.Is(err, ErrAbort) {
			continue // planted label; a fresh run would be used in the proof
		}
		if err != nil {
			t.Fatal(err)
		}
		served++
		h, err := sim.H1(label)
		if err != nil {
			t.Fatal(err)
		}
		// ê(G, upd) == ê(yG, H1(label)) — the self-authentication equation
		// against the simulated oracle.
		if !set.B.SamePairing(set.G, upd.Point, yG, h) {
			t.Fatal("simulated update failed the real verification equation")
		}
		// And it literally equals y·H1(label).
		if !set.B.Equal(backend.G2, upd.Point, set.B.ScalarMult(backend.G2, y, h)) {
			t.Fatal("simulated update != y·H1(label)")
		}
	}
	if served < 10 {
		t.Fatal("too few answerable labels (δ miscalibrated?)")
	}
}

func TestReductionExtractsBDHFromSuccessfulAdversary(t *testing.T) {
	// End-to-end soundness: a maximally successful 𝒜₃ (simulated here
	// with the ground-truth exponents the simulator never sees) decrypts
	// the challenge; 𝒜₂'s extraction must then contain ê(G, Q)^{xy}.
	set := smallSet()
	x, _ := set.B.RandScalar(nil)
	y, _ := set.B.RandScalar(nil)
	z, _ := set.B.RandScalar(nil)
	xG := set.B.ScalarMult(backend.G1, x, set.G)
	yG := set.B.ScalarMult(backend.G1, y, set.G)
	q := set.B.ScalarMult(backend.G1, z, set.G)

	// High δ so a planted challenge label is found quickly.
	sim, err := NewSimulator(set, xG, yG, q, 128, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 𝒜₃ makes some update queries first (only answerable ones succeed —
	// the adversary in the proof may hold arbitrarily many of these).
	for i := 0; i < 6; i++ {
		_, _ = sim.Update(fmt.Sprintf("past-%d", i))
	}

	// 𝒜₃ picks a challenge label; retry until the coin pattern fits
	// (in the proof this is the non-abort branch).
	var challengeLabel string
	for i := 0; ; i++ {
		label := fmt.Sprintf("challenge-%d", i)
		if _, err := sim.H1(label); err != nil {
			t.Fatal(err)
		}
		if isPlanted, _ := sim.Kind(label); isPlanted {
			challengeLabel = label
			break
		}
		if i > 100 {
			t.Fatal("no planted label in 100 tries at δ=1/2")
		}
	}
	ct, err := sim.Challenge(challengeLabel, 32)
	if err != nil {
		t.Fatal(err)
	}

	// The "successful adversary": with ground truth it computes the real
	// update y·H1(T) and decrypts like an honest receiver with a = 1,
	// calling the simulator's H2 oracle to unmask — exactly the query the
	// reduction fishes for.
	h, err := sim.H1(challengeLabel)
	if err != nil {
		t.Fatal(err)
	}
	magicUpdate := set.B.ScalarMult(backend.G2, y, h)
	kPrime := set.B.Pair(ct.U, magicUpdate)
	_ = rohash.XOR(ct.V, sim.H2(kPrime, len(ct.V))) // the "plaintext" (random, irrelevant)

	// 𝒜₂ extracts; ground truth is ê(G, Q)^{xy} = ê(xG, Q)^y.
	want := set.B.GTExpUnitary(set.B.Pair(xG, q), y)
	candidates, err := sim.ExtractCandidates(challengeLabel)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range candidates {
		if set.B.GTEqual(c, want) {
			return // reduction succeeded
		}
	}
	t.Fatalf("none of %d candidates equals ê(G,Q)^xy — the reduction lost the solution", len(candidates))
}

func TestAbortProbabilityMatchesAnalysis(t *testing.T) {
	// The appendix: a run with q_u update queries and one challenge
	// survives with probability δ(1−δ)^{q_u}. Monte-Carlo check at
	// δ = 1/4, q_u = 3: expected survival 0.25·0.75³ ≈ 0.1055.
	set := smallSet()
	x, _ := set.B.RandScalar(nil)
	y, _ := set.B.RandScalar(nil)
	z, _ := set.B.RandScalar(nil)
	xG := set.B.ScalarMult(backend.G1, x, set.G)
	yG := set.B.ScalarMult(backend.G1, y, set.G)
	q := set.B.ScalarMult(backend.G1, z, set.G)

	const (
		trials = 600
		qu     = 3
		delta  = 0.25
	)
	survived := 0
	for trial := 0; trial < trials; trial++ {
		sim, err := NewSimulator(set, xG, yG, q, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for i := 0; i < qu; i++ {
			if _, err := sim.Update(fmt.Sprintf("t%d-u%d", trial, i)); err != nil {
				ok = false
				break
			}
		}
		if ok {
			if _, err := sim.Challenge(fmt.Sprintf("t%d-chal", trial), 8); err != nil {
				ok = false
			}
		}
		if ok {
			survived++
		}
	}
	want := delta * math.Pow(1-delta, qu)
	got := float64(survived) / trials
	sigma := math.Sqrt(want * (1 - want) / trials) // ≈ 0.0125
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("survival rate %.4f, analysis predicts %.4f (±%.4f at 5σ)", got, want, 5*sigma)
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	set := smallSet()
	g := set.G
	for _, d := range []int{0, 256, -3} {
		if _, err := NewSimulator(set, g, g, g, d, nil); err == nil {
			t.Errorf("delta256=%d must be rejected", d)
		}
	}
}

func TestChallengeOnAnswerableAborts(t *testing.T) {
	set := smallSet()
	g := set.G
	sim, err := NewSimulator(set, g, g, g, 1, nil) // δ ≈ 0.4%: labels ~all answerable
	if err != nil {
		t.Fatal(err)
	}
	aborted := false
	for i := 0; i < 32; i++ {
		label := fmt.Sprintf("c-%d", i)
		if _, err := sim.Challenge(label, 8); errors.Is(err, ErrAbort) {
			aborted = true
			break
		}
	}
	if !aborted {
		t.Fatal("challenge on answerable labels must abort")
	}
	if _, err := sim.ExtractCandidates("never-queried"); !errors.Is(err, ErrAbort) {
		t.Fatalf("extract without planted challenge: err=%v", err)
	}
}
