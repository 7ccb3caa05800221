package rivest

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/params"
)

// onBothBackends runs body on the paper's Type-1 setting and on
// BLS12-381 (hashed ElGamal only needs G1).
func onBothBackends(t *testing.T, body func(*testing.T, *params.Set)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) { body(t, params.MustPreset(preset)) })
	}
}

func TestRoundTripThroughEpochs(t *testing.T) { onBothBackends(t, testRoundTripThroughEpochs) }

func testRoundTripThroughEpochs(t *testing.T, set *params.Set) {
	srv := NewServer(set)
	if err := srv.ExtendHorizon(nil, 5); err != nil {
		t.Fatal(err)
	}
	pubs := srv.PublicKeys()
	msg := []byte("sealed for epoch 3")
	ct, err := Encrypt(nil, set, pubs, 3, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs release in order as time passes.
	for e := 0; e <= 3; e++ {
		if _, err := srv.Release(e); err != nil {
			t.Fatalf("Release(%d): %v", e, err)
		}
	}
	priv, err := srv.Release(3) // already released; fetching again is fine
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(set, priv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestHorizonLimitsSenders(t *testing.T) { onBothBackends(t, testHorizonLimitsSenders) }

func testHorizonLimitsSenders(t *testing.T, set *params.Set) {
	// The paper's §1 footnote 2 criticism: a sender cannot seal beyond
	// the published list.
	srv := NewServer(set)
	if err := srv.ExtendHorizon(nil, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Encrypt(nil, set, srv.PublicKeys(), 7, []byte("m")); !errors.Is(err, ErrBeyondHorizon) {
		t.Fatalf("encrypt beyond horizon: err=%v", err)
	}
}

func TestReleaseOrderEnforced(t *testing.T) { onBothBackends(t, testReleaseOrderEnforced) }

func testReleaseOrderEnforced(t *testing.T, set *params.Set) {
	srv := NewServer(set)
	if err := srv.ExtendHorizon(nil, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Release(2); err == nil {
		t.Fatal("out-of-order release must fail")
	}
	if _, err := srv.Release(5); !errors.Is(err, ErrBeyondHorizon) {
		t.Fatalf("release beyond horizon: err=%v", err)
	}
}

func TestWrongEpochKeyFails(t *testing.T) { onBothBackends(t, testWrongEpochKeyFails) }

func testWrongEpochKeyFails(t *testing.T, set *params.Set) {
	srv := NewServer(set)
	if err := srv.ExtendHorizon(nil, 2); err != nil {
		t.Fatal(err)
	}
	msg := []byte("epoch 1 message")
	ct, err := Encrypt(nil, set, srv.PublicKeys(), 1, msg)
	if err != nil {
		t.Fatal(err)
	}
	k0, err := srv.Release(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(set, k0, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("epoch-0 key must not decrypt epoch-1 ciphertext")
	}
}

func TestStorageGrowsWithHorizon(t *testing.T) { onBothBackends(t, testStorageGrowsWithHorizon) }

func testStorageGrowsWithHorizon(t *testing.T, set *params.Set) {
	srv := NewServer(set)
	if err := srv.ExtendHorizon(nil, 10); err != nil {
		t.Fatal(err)
	}
	s10 := srv.StoredKeyBytes()
	p10 := srv.PublishedKeyBytes()
	if err := srv.ExtendHorizon(nil, 90); err != nil {
		t.Fatal(err)
	}
	if srv.StoredKeyBytes() != 10*s10 || srv.PublishedKeyBytes() != 10*p10 {
		t.Fatalf("storage must be linear in horizon: %d → %d, %d → %d",
			s10, srv.StoredKeyBytes(), p10, srv.PublishedKeyBytes())
	}
	if srv.Horizon() != 100 {
		t.Fatalf("Horizon = %d", srv.Horizon())
	}
}
