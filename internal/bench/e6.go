package bench

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/wire"
)

// RunE6 measures the self-authentication claim of §5.3.1: the update
// s·H1(T) *is* a BLS short signature, so no additional server signature
// is attached. The strawman comparator signs the update blob with a
// second, independent BLS key — the overhead a naive design would pay.
func RunE6(cfg Config) (*Table, error) {
	set, err := cfg.set()
	if err != nil {
		return nil, err
	}
	const label = "2026-07-05T12:00:00Z"
	iters := cfg.iters(20)

	sc := core.NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		return nil, err
	}
	codec := wire.NewCodec(set)
	upd := sc.IssueUpdate(server, label)
	encoded := codec.MarshalKeyUpdate(upd)

	// Strawman: update ‖ detached signature over the encoded update by a
	// separate signing key.
	sigKey, err := bls.GenerateKey(set, nil)
	if err != nil {
		return nil, err
	}
	detached := sigKey.Sign(set, "detached", encoded)
	sigLen := set.B.PointLen(backend.G2) // updates and signatures are G2 points
	strawmanSize := len(encoded) + sigLen

	verifySelf := timeOp(iters, func() {
		if !sc.VerifyUpdate(server.Pub, upd) {
			panic("verify failed")
		}
	})
	verifyStrawman := timeOp(iters, func() {
		// The strawman must verify the detached signature AND the client
		// still has to trust that the inner point is s·H1(T) — i.e. run
		// the same pairing check — so the naive design pays both.
		if !bls.Verify(set, sigKey.Pub, set.B.HashToG2("detached", encoded), detached) {
			panic("verify failed")
		}
		if !sc.VerifyUpdate(server.Pub, upd) {
			panic("verify failed")
		}
	})
	issue := timeOp(iters, func() { sc.IssueUpdate(server, label) })

	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("Self-authenticated updates vs detached-signature strawman (%s)", set.Name),
		Claim: `"the key update is a short signature inherently authenticating itself; no additional overhead of a server signature is needed" (§5.3.1)`,
		Columns: []string{
			"design", "update size", "issue time", "verify time",
		},
	}
	t.Add("self-authenticated (this paper)", bytesHuman(int64(len(encoded))), ms(issue), ms(verifySelf))
	t.Add("update + detached signature", bytesHuman(int64(strawmanSize)), ms(issue)+" + sign", ms(verifyStrawman))

	// Catch-up batching: verifying a backlog of missed updates with one
	// random-linear-combination pairing equation vs one equation each.
	const backlog = 20
	ups := make([]core.KeyUpdate, backlog)
	for i := range ups {
		ups[i] = sc.IssueUpdate(server, fmt.Sprintf("epoch-%03d", i))
	}
	individually := timeOp(cfg.iters(5), func() {
		for _, u := range ups {
			if !sc.VerifyUpdate(server.Pub, u) {
				panic("verify failed")
			}
		}
	})
	batched := timeOp(cfg.iters(5), func() {
		ok, err := sc.VerifyUpdateBatch(server.Pub, ups)
		if err != nil || !ok {
			panic("batch verify failed")
		}
	})
	t.Add(fmt.Sprintf("catch-up: %d updates, one by one", backlog), bytesHuman(int64(backlog*len(encoded))), "—", ms(individually))
	t.Add(fmt.Sprintf("catch-up: %d updates, batched", backlog), bytesHuman(int64(backlog*len(encoded))), "—", ms(batched))

	t.Note("update encoding = label + one compressed point (%d B point at this size)", sigLen)
	t.Note("the strawman is strictly worse: +1 point on the wire and a second pairing-equation verification")
	t.Note("batched catch-up: ê(G, Σeᵢσᵢ) = ê(sG, ΣeᵢH1(Tᵢ)) with random 128-bit blinders — 2 Miller loops for the whole backlog (Client.CatchUp uses this)")
	t.Note("verify/batch times use the scheme's prepared server key (precomputed Miller-loop line schedules for (G, sG)); the two blinded sums are multi-scalar multiplications chunked over a GOMAXPROCS-bounded pool, the hash cofactor cleared once per batch")
	return t, nil
}
