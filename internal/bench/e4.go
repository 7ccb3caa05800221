package bench

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/params"
	"timedrelease/internal/ref"
)

// RunE4 measures the primitive costs underlying every scheme —
// feasibility data the paper asserts qualitatively ("there is an
// efficient algorithm to compute ê(P,Q)", §4). It doubles as the
// affine-vs-production ablation: the textbook affine math/big pairing
// and ladder (internal/ref's oracles) against the Jacobian limb code
// that ships.
func RunE4(cfg Config) (*Table, error) {
	names := []string{"Test160", "SS512", "SS1024"}
	if cfg.Quick {
		names = []string{"Test160"}
	}
	t := &Table{
		ID:    "E4",
		Title: "Primitive micro-benchmarks across parameter sizes",
		Claim: "feasibility of the pairing, hashing and signature primitives (§4, §5)",
		Columns: []string{
			"params", "pairing", "pairing (affine)", "pairing (prepared)", "final exp", "scalar mult (jac)", "scalar mult (affine)", "H1 hash", "BLS sign", "BLS verify",
		},
	}

	for _, name := range names {
		set, err := params.Preset(name)
		if err != nil {
			return nil, err
		}
		iters := cfg.iters(30)
		if name == "SS1024" {
			iters = cfg.iters(10)
		}
		// The table times the affine oracles and the prepared schedule
		// next to the production path, so it needs the Type-1 internals.
		c, pr := set.B.(*backend.Symmetric).Type1()
		p := c.HashToGroup("bench", []byte("P"))
		q := c.HashToGroup("bench", []byte("Q"))
		k, err := c.RandScalar(nil)
		if err != nil {
			return nil, err
		}
		key, err := bls.GenerateKey(set, nil)
		if err != nil {
			return nil, err
		}
		msg := []byte("2026-07-05T12:00:00Z")
		sig := key.Sign(set, "time", msg)

		var sink any
		pair := timeOp(iters, func() { sink = pr.Pair(p, q) })
		pairAffine := timeOp(iters, func() { sink = ref.PairAffine(c, p, q) })
		prep := pr.Precompute(p)
		pairPrepared := timeOp(iters, func() { sink = pr.PairPrepared(prep, q) })
		e2, err := ref.NewFp2(c.F)
		if err != nil {
			return nil, err
		}
		l := e2.Limbs(ref.MillerAffine(c, p, q))
		mv := append(append([]uint64{}, l.A...), l.B...) // the GT vector A ‖ B
		finalExp := timeOp(iters, func() { sink = pr.FinalExp(mv) })
		smJac := timeOp(iters, func() { sink = c.ScalarMult(k, p) })
		smAff := timeOp(iters, func() { sink = ref.ScalarMultAffine(c, k, p) })
		h1 := timeOp(iters, func() { sink = c.HashToGroup("bench-h1", msg) })
		sign := timeOp(iters, func() { sink = key.Sign(set, "time", msg) })
		verify := timeOp(iters, func() {
			if !bls.Verify(set, key.Pub, set.B.HashToG2("time", msg), sig) {
				panic("verify failed")
			}
		})
		_ = sink

		t.Add(fmt.Sprintf("%s (|p|=%d,|q|=%d)", set.Name, set.P.BitLen(), set.Q.BitLen()),
			ms(pair), ms(pairAffine), ms(pairPrepared), ms(finalExp), ms(smJac), ms(smAff), ms(h1), ms(sign), ms(verify))
	}
	t.Note("ablation: the (affine) columns are internal/ref's textbook oracles, which the differential tests compare against — affine math/big arithmetic with one field inversion per step and, for the pairing, a plain f^((p²−1)/q) final exponentiation included; pairing, final exp and scalar mult (jac) are the one production path, Jacobian coordinates on fixed-limb Montgomery vectors (benchmark/'s ff.ss512_mul_ns / ff.ss512_inv_us probes time the field alone)")
	t.Note("pairing (prepared) reuses a precomputed fixed-argument line schedule (BenchmarkPairing_* runs the same comparison under testing.B)")
	t.Note("BLS verify uses the shared-final-exponentiation pairing-equation check (two Miller loops, one final exp)")
	return t, nil
}
