package bls

import (
	"fmt"
	"math/rand"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
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

// TestBatchDoorsAgree runs the accept/reject cases above, on both
// backends, through both entries to the one batch verifier: VerifyBatch
// hashing (dst, msgs[i]) itself and VerifyBatchHashed fed those hashes.
// With the same deterministic rng they draw the same blinders and must
// return the same verdict and the same kind of error.
func TestBatchDoorsAgree(t *testing.T) {
	for _, preset := range []string{"Test160", "BLS12-381"} {
		t.Run(preset, func(t *testing.T) {
			set, k := testKey(t, params.MustPreset(preset))
			_, other := testKey(t, set)
			pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
			var msgs [][]byte
			var sigs []curve.Point
			for i := 0; i < 8; i++ {
				msgs = append(msgs, []byte(fmt.Sprintf("epoch-%d", i)))
				sigs = append(sigs, k.Sign(set, "time", msgs[i]))
			}
			with := func(i int, p curve.Point) []curve.Point {
				out := append([]curve.Point(nil), sigs...)
				out[i] = p
				return out
			}
			disowned := *set
			disowned.B = flagged{Backend: set.B, bad: sigs[3]}

			cases := []struct {
				name    string
				set     *params.Set
				msgs    [][]byte
				sigs    []curve.Point
				want    bool
				wantErr bool
			}{
				{"genuine", set, msgs, sigs, true, false},
				{"single", set, msgs[:1], sigs[:1], true, false},
				{"empty", set, nil, nil, true, false},
				{"one corrupted", set, msgs, with(4, set.B.Add(backend.G2, sigs[4], set.G2)), false, false},
				{"one under another key", set, msgs, with(2, other.Sign(set, "time", msgs[2])), false, false},
				{"two swapped", set, msgs[:2], []curve.Point{sigs[1], sigs[0]}, false, false},
				{"identity", set, msgs, with(7, set.B.Infinity(backend.G2)), false, false},
				{"outside the subgroup", &disowned, msgs, sigs, false, false},
				{"fewer signatures", set, msgs, sigs[:7], false, true},
				{"fewer messages", set, msgs[:7], sigs, false, true},
			}
			for _, tc := range cases {
				hashes := make([]curve.Point, len(tc.msgs))
				for i, m := range tc.msgs {
					hashes[i] = set.B.HashToG2("time", m)
				}
				ok1, err1 := VerifyBatch(tc.set, pk, "time", tc.msgs, tc.sigs, rand.New(rand.NewSource(7)))
				ok2, err2 := VerifyBatchHashed(tc.set, pk, hashes, tc.sigs, rand.New(rand.NewSource(7)))
				if ok1 != tc.want || (err1 != nil) != tc.wantErr {
					t.Errorf("%s: VerifyBatch = %v, %v; want %v, error %v", tc.name, ok1, err1, tc.want, tc.wantErr)
				}
				if ok2 != ok1 || (err2 != nil) != (err1 != nil) {
					t.Errorf("%s: VerifyBatchHashed = %v, %v; VerifyBatch = %v, %v", tc.name, ok2, err2, ok1, err1)
				}
			}
		})
	}
}

// TestBatchRejectsRealSmallOrderComponent replaces one genuine σ with
// σ + [q]R for a random curve point R: on the curve, of order dividing
// the cofactor h, outside the subgroup. The pairing kills the [q]R
// component, so the BLS equation — and any random linear combination
// of such points — still holds; only the per-signature subgroup check
// rejects it, through both doors. (flagged above only simulates this.)
func TestBatchRejectsRealSmallOrderComponent(t *testing.T) {
	for _, preset := range []string{"Test160", "SS512"} {
		t.Run(preset, func(t *testing.T) {
			set, k := testKey(t, params.MustPreset(preset))
			c, _ := set.B.(*backend.Symmetric).Type1()
			pk := set.B.PrepareKey(k.Pub.G, k.Pub.SG, k.Pub.SG2)
			var msgs [][]byte
			var hashes, sigs []curve.Point
			for i := 0; i < 8; i++ {
				msgs = append(msgs, []byte(fmt.Sprintf("epoch-%d", i)))
				hashes = append(hashes, set.B.HashToG2("time", msgs[i]))
				sigs = append(sigs, k.Sign(set, "time", msgs[i]))
			}
			r, err := c.RandomPoint(rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			small := c.ScalarMult(c.Q, r)
			if small.IsInfinity() || !c.ScalarMult(c.H, small).IsInfinity() {
				t.Fatal("[q]R must be a non-identity point of order dividing h")
			}
			sigs[3] = c.Add(sigs[3], small)
			if !set.B.IsOnCurve(backend.G2, sigs[3]) || set.B.InSubgroup(backend.G2, sigs[3]) {
				t.Fatal("σ + [q]R must be on the curve and outside the subgroup")
			}
			if !pk.PairCheck(hashes[3], sigs[3]) {
				t.Fatal("the bare pairing equation should not see the small-order component")
			}
			if VerifyPrepared(set, pk, hashes[3], sigs[3]) {
				t.Fatal("VerifyPrepared accepted σ + [q]R")
			}
			for i := 0; i < 4; i++ { // fresh blinders each time
				if ok, err := VerifyBatch(set, pk, "time", msgs, sigs, nil); ok || err != nil {
					t.Fatalf("VerifyBatch = %v, %v on σ + [q]R", ok, err)
				}
				if ok, err := VerifyBatchHashed(set, pk, hashes, sigs, nil); ok || err != nil {
					t.Fatalf("VerifyBatchHashed = %v, %v on σ + [q]R", ok, err)
				}
			}
		})
	}
}
