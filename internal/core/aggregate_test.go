package core

import (
	"fmt"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/obs"
)

// issueRun publishes n consecutive updates plus their true aggregate.
func issueRun(e *testEnv, n int) ([]KeyUpdate, curve.Point) {
	ups := make([]KeyUpdate, n)
	agg := curve.Infinity()
	for i := range ups {
		ups[i] = e.sc.IssueUpdate(e.server, fmt.Sprintf("2026-07-05T12:%02d:00Z", i))
		agg = e.sc.Set.B.Add(backend.G2, agg, ups[i].Point)
	}
	return ups, agg
}

func TestVerifyUpdateAggregate(t *testing.T) {
	e := newTestEnv(t)
	ups, agg := issueRun(e, 12)

	if !e.sc.VerifyUpdateAggregate(e.server.Pub, ups, agg) {
		t.Fatal("genuine run must aggregate-verify")
	}
	// Empty run: identity aggregate only.
	if !e.sc.VerifyUpdateAggregate(e.server.Pub, nil, curve.Infinity()) {
		t.Fatal("empty run with identity aggregate must verify")
	}
	if e.sc.VerifyUpdateAggregate(e.server.Pub, nil, agg) {
		t.Fatal("empty run with non-identity aggregate must not verify")
	}
	// Wrong aggregate point.
	if e.sc.VerifyUpdateAggregate(e.server.Pub, ups, ups[0].Point) {
		t.Fatal("mismatched aggregate must not verify")
	}
	// A run missing one update no longer matches the aggregate.
	if e.sc.VerifyUpdateAggregate(e.server.Pub, ups[:len(ups)-1], agg) {
		t.Fatal("truncated run must not verify against the full aggregate")
	}
}

// TestAggregateDetectsForgedUpdateDifferential is the acceptance-
// criteria check: a single forged update inside an aggregated range is
// detected by the aggregate verifier, and the per-update batch verifier
// agrees — so a client falling back from one to the other reaches the
// same wholesale rejection.
func TestAggregateDetectsForgedUpdateDifferential(t *testing.T) {
	e := newTestEnv(t)
	impostor, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	for forgeAt := 0; forgeAt < 10; forgeAt += 3 {
		ups, _ := issueRun(e, 10)
		ups[forgeAt] = e.sc.IssueUpdate(impostor, ups[forgeAt].Label) // right label, wrong key
		agg := curve.Infinity()
		for _, u := range ups {
			agg = e.sc.Set.B.Add(backend.G2, agg, u.Point) // honest sum over the tampered run
		}
		if e.sc.VerifyUpdateAggregate(e.server.Pub, ups, agg) {
			t.Fatalf("aggregate verify accepted a run with a forgery at %d", forgeAt)
		}
		batchOK, err := e.sc.VerifyUpdateBatch(e.server.Pub, ups)
		if err != nil {
			t.Fatal(err)
		}
		if batchOK {
			t.Fatalf("batch verify accepted a run with a forgery at %d", forgeAt)
		}
		// And the per-update check localises exactly the forgery.
		for i, u := range ups {
			if got := e.sc.VerifyUpdate(e.server.Pub, u); got != (i != forgeAt) {
				t.Fatalf("per-update verify at %d = %v with forgery at %d", i, got, forgeAt)
			}
		}
	}
}

// TestVerifyUpdateAggregateIsTwoPairings pins the acceptance criterion
// directly: however long the run, the aggregate check costs one pairing
// product (two pairings on the core.pairings counter).
func TestVerifyUpdateAggregateIsTwoPairings(t *testing.T) {
	e := newTestEnv(t)
	ups, agg := issueRun(e, 50)
	reg := obs.NewRegistry()
	e.sc.Instrument(reg)
	if !e.sc.VerifyUpdateAggregate(e.server.Pub, ups, agg) {
		t.Fatal("genuine run must verify")
	}
	if got := reg.Counter("core.pairings").Load(); got != 2 {
		t.Fatalf("aggregate verification of 50 updates cost %d pairings, want 2", got)
	}
}

// TestAggregateSumBindingCaveat documents (executably) the known limit
// of the plain aggregate equation: it binds the SUM of the delivered
// points, so two compensating tampers cancel — which is exactly why the
// client treats the blinded batch verifier as authoritative on any
// mismatch and why ciphertext-level authentication still guards
// decryption (docs/PROTOCOL.md).
func TestAggregateSumBindingCaveat(t *testing.T) {
	e := newTestEnv(t)
	ups, agg := issueRun(e, 4)
	b := e.sc.Set.B
	delta := e.sc.IssueUpdate(e.server, "some-other-label").Point
	ups[1].Point = b.Add(backend.G2, ups[1].Point, delta)
	ups[2].Point = b.Add(backend.G2, ups[2].Point, b.Neg(backend.G2, delta))
	if !e.sc.VerifyUpdateAggregate(e.server.Pub, ups, agg) {
		t.Fatal("compensating tamper unexpectedly caught — update the PROTOCOL.md threat model if the equation changed")
	}
	// The blinded batch verifier DOES catch it: per-update blinders
	// break the cancellation.
	ok, err := e.sc.VerifyUpdateBatch(e.server.Pub, ups)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("blinded batch verify must reject compensating tampers")
	}
}
