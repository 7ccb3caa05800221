package bfibe

import (
	"bytes"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
)

// onBothBackends runs body with a fresh scheme and master key on the
// paper's Type-1 setting and on BLS12-381.
func onBothBackends(t *testing.T, body func(*testing.T, *Scheme, *MasterKey)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) {
			sc := NewScheme(params.MustPreset(preset))
			mk, err := sc.MasterKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			body(t, sc, mk)
		})
	}
}

func TestRoundTrip(t *testing.T) { onBothBackends(t, testRoundTrip) }

func testRoundTrip(t *testing.T, sc *Scheme, mk *MasterKey) {
	msg := []byte("to alice, via her identity alone")
	ct, err := sc.Encrypt(nil, mk.Pub, "alice", msg)
	if err != nil {
		t.Fatal(err)
	}
	priv := sc.Extract(mk, "alice")
	got, err := sc.Decrypt(priv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestWrongIdentityFails(t *testing.T) { onBothBackends(t, testWrongIdentityFails) }

func testWrongIdentityFails(t *testing.T, sc *Scheme, mk *MasterKey) {
	msg := []byte("alice only")
	ct, err := sc.Encrypt(nil, mk.Pub, "alice", msg)
	if err != nil {
		t.Fatal(err)
	}
	bob := sc.Extract(mk, "bob")
	got, err := sc.Decrypt(bob, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("bob must not decrypt alice's ciphertext")
	}
}

func TestWrongMasterFails(t *testing.T) { onBothBackends(t, testWrongMasterFails) }

func testWrongMasterFails(t *testing.T, sc *Scheme, mk *MasterKey) {
	other, err := sc.MasterKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	ct, err := sc.Encrypt(nil, mk.Pub, "alice", msg)
	if err != nil {
		t.Fatal(err)
	}
	alien := sc.Extract(other, "alice")
	got, err := sc.Decrypt(alien, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("a key from a different PKG must not decrypt")
	}
}

func TestMalformedCiphertext(t *testing.T) { onBothBackends(t, testMalformedCiphertext) }

func testMalformedCiphertext(t *testing.T, sc *Scheme, mk *MasterKey) {
	priv := sc.Extract(mk, "alice")
	if _, err := sc.Decrypt(priv, nil); err == nil {
		t.Fatal("nil ciphertext must be rejected")
	}
}

func TestExtractIsDeterministic(t *testing.T) { onBothBackends(t, testExtractIsDeterministic) }

func testExtractIsDeterministic(t *testing.T, sc *Scheme, mk *MasterKey) {
	a := sc.Extract(mk, "alice")
	b := sc.Extract(mk, "alice")
	if !sc.Set.B.Equal(backend.G2, a.D, b.D) {
		t.Fatal("extraction must be deterministic")
	}
}
