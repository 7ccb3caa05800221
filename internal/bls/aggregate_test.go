package bls

import (
	"fmt"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// signMany signs n distinct messages, returning them with their hashes.
func signMany(set *params.Set, k *PrivateKey, dst string, n int) (msgs [][]byte, hashes, sigs []curve.Point) {
	for i := 0; i < n; i++ {
		m := []byte(fmt.Sprintf("label-%d", i))
		msgs = append(msgs, m)
		hashes = append(hashes, set.B.HashToG2(dst, m))
		sigs = append(sigs, k.Sign(set, dst, m))
	}
	return msgs, hashes, sigs
}

// TestAggregateInto: folding one signature at a time and folding the
// whole set in one variadic call land on the same point, which is
// s·ΣH1(mᵢ).
func TestAggregateInto(t *testing.T) {
	set, k := testSetup(t)
	_, hashes, sigs := signMany(set, k, "dst", 7)
	inf := set.B.Infinity(backend.G2)

	acc := inf
	for _, s := range sigs {
		acc = AggregateInto(set, acc, s)
	}
	whole := AggregateInto(set, inf, sigs...)
	if !set.B.Equal(backend.G2, acc, whole) {
		t.Fatal("incremental aggregation diverged from the variadic fold")
	}
	want := set.B.ScalarMult(backend.G2, k.S, AggregateInto(set, inf, hashes...))
	if !set.B.Equal(backend.G2, whole, want) {
		t.Fatal("aggregate != s·ΣH1(mᵢ)")
	}
	if !set.B.Equal(backend.G2, AggregateInto(set, inf), inf) {
		t.Fatal("folding nothing must return the accumulator")
	}
}

// TestVerifyAggregate covers the one aggregate verifier: dropped,
// tampered and foreign-key components, and the empty list.
func TestVerifyAggregate(t *testing.T) {
	set, k := testSetup(t)
	pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
	inf := set.B.Infinity(backend.G2)
	msgs, hashes, sigs := signMany(set, k, "dst", 9)
	agg := AggregateInto(set, inf, sigs...)

	if !VerifyAggregate(set, pk, hashes, agg) {
		t.Fatal("genuine aggregate must verify")
	}
	// A dropped hash breaks the sum, and so does a dropped signature.
	if VerifyAggregate(set, pk, hashes[:len(hashes)-1], agg) {
		t.Fatal("aggregate over a shorter message list must not verify")
	}
	if VerifyAggregate(set, pk, hashes, AggregateInto(set, inf, sigs[:8]...)) {
		t.Fatal("partial aggregate must not verify")
	}
	if VerifyAggregate(set, pk, hashes, set.B.Add(backend.G2, agg, set.G)) {
		t.Fatal("tampered aggregate must not verify")
	}
	// A signature by another key inside the aggregate breaks it.
	other, err := GenerateKey(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]curve.Point(nil), sigs...)
	forged[4] = other.Sign(set, "dst", msgs[4])
	if VerifyAggregate(set, pk, hashes, AggregateInto(set, inf, forged...)) {
		t.Fatal("aggregate containing a foreign-key signature must not verify")
	}

	// Empty list: verifies iff the aggregate is the identity.
	if !VerifyAggregate(set, pk, nil, inf) {
		t.Fatal("empty aggregate over no messages must verify")
	}
	if VerifyAggregate(set, pk, nil, agg) {
		t.Fatal("non-identity aggregate over no messages must not verify")
	}
	// Identity aggregate over a non-empty list is rejected outright.
	if VerifyAggregate(set, pk, hashes, inf) {
		t.Fatal("identity aggregate over messages must not verify")
	}
}
