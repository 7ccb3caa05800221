package bls

import (
	"fmt"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

func TestVerifyBatchAccepts(t *testing.T) {
	set, k := testSetup(t)
	pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
	var msgs [][]byte
	var sigs []curve.Point
	for i := 0; i < 8; i++ {
		m := []byte(fmt.Sprintf("epoch-%d", i))
		msgs = append(msgs, m)
		sigs = append(sigs, k.Sign(set, "time", m))
	}
	ok, err := VerifyBatch(set, pk, "time", msgs, sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("batch of genuine signatures must verify")
	}
}

func TestVerifyBatchDetectsOneBadSignature(t *testing.T) {
	set, k := testSetup(t)
	pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
	var msgs [][]byte
	var sigs []curve.Point
	for i := 0; i < 8; i++ {
		m := []byte(fmt.Sprintf("epoch-%d", i))
		msgs = append(msgs, m)
		sigs = append(sigs, k.Sign(set, "time", m))
	}
	// Corrupt exactly one signature in the middle.
	sigs[4] = set.B.Add(backend.G2, sigs[4], set.G2)
	ok, err := VerifyBatch(set, pk, "time", msgs, sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("batch with a corrupted signature must fail")
	}
}

func TestVerifyBatchDetectsSwappedSignatures(t *testing.T) {
	// Two valid signatures on swapped messages: each pair is individually
	// wrong even though the sums of naive (unblinded) combinations would
	// match — the random blinders must catch it.
	set, k := testSetup(t)
	pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
	msgs := [][]byte{[]byte("a"), []byte("b")}
	sigs := []curve.Point{k.Sign(set, "time", msgs[1]), k.Sign(set, "time", msgs[0])}
	ok, err := VerifyBatch(set, pk, "time", msgs, sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("swapped signatures must fail batch verification")
	}
}

func TestVerifyBatchEdgeCases(t *testing.T) {
	set, k := testSetup(t)
	pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
	// Empty batch: vacuously true.
	ok, err := VerifyBatch(set, pk, "time", nil, nil, nil)
	if err != nil || !ok {
		t.Fatalf("empty batch: %v %v", ok, err)
	}
	// Length mismatch is an error, not a false.
	if _, err := VerifyBatch(set, pk, "time", [][]byte{[]byte("m")}, nil, nil); err == nil {
		t.Fatal("length mismatch must error")
	}
	// Identity signature rejected.
	ok, err = VerifyBatch(set, pk, "time", [][]byte{[]byte("m")}, []curve.Point{curve.Infinity()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("identity signature must fail")
	}
	// Single-element batch agrees with VerifyPrepared.
	m := []byte("solo")
	sig := k.Sign(set, "time", m)
	ok, err = VerifyBatch(set, pk, "time", [][]byte{m}, []curve.Point{sig}, nil)
	if err != nil || ok != VerifyPrepared(set, pk, set.B.HashToG2("time", m), sig) || !ok {
		t.Fatalf("single batch: %v %v", ok, err)
	}
}
