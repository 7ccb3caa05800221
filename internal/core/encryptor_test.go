package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"timedrelease/internal/backend"
)

func TestEncryptorMatchesScheme(t *testing.T) {
	// The amortised path must produce ciphertexts the normal decryption
	// path opens, across several labels.
	e := newTestEnv(t)
	enc, err := e.sc.NewEncryptor(e.server.Pub, e.user.Pub)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"epoch-1", "epoch-2", "epoch-1"} // repeat hits the cache
	for i, label := range labels {
		msg := []byte{byte(i), 'm', 's', 'g'}
		ct, err := enc.Encrypt(nil, label, msg)
		if err != nil {
			t.Fatal(err)
		}
		upd := e.sc.IssueUpdate(e.server, label)
		got, err := e.sc.Decrypt(e.user, upd, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("label %s: round trip mismatch", label)
		}
	}
	if enc.CachedLabels() != 2 {
		t.Fatalf("CachedLabels = %d, want 2", enc.CachedLabels())
	}
}

func TestEncryptorCCAMatchesScheme(t *testing.T) {
	e := newTestEnv(t)
	enc, err := e.sc.NewEncryptor(e.server.Pub, e.user.Pub)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("amortised FO")
	ct, err := enc.EncryptCCA(nil, testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	got, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("FO round trip mismatch")
	}
}

func TestEncryptorDeterministicAgreement(t *testing.T) {
	// With the same FO seed and message, the encryptor and the scheme
	// must produce byte-identical ciphertexts (they share r = H3(σ‖M)).
	e := newTestEnv(t)
	enc, err := e.sc.NewEncryptor(e.server.Pub, e.user.Pub)
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{0x42}, 64) // deterministic "rng"
	msg := []byte("identical output check")
	ct1, err := enc.EncryptCCA(bytes.NewReader(seed), testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := e.sc.EncryptCCA(bytes.NewReader(seed), e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !e.sc.Set.B.Equal(backend.G1, ct1.U, ct2.U) || !bytes.Equal(ct1.W, ct2.W) || !bytes.Equal(ct1.V, ct2.V) {
		t.Fatal("amortised and direct FO encryption must agree byte-for-byte for equal randomness")
	}
}

func TestEncryptorRejectsBadKey(t *testing.T) {
	e := newTestEnv(t)
	bad := e.user.Pub
	bad.ASG = e.sc.Set.B.Add(backend.G1, bad.ASG, e.sc.Set.G)
	if _, err := e.sc.NewEncryptor(e.server.Pub, bad); !errors.Is(err, ErrInvalidPublicKey) {
		t.Fatalf("err=%v, want ErrInvalidPublicKey", err)
	}
}

func TestEncryptorConcurrent(t *testing.T) {
	e := newTestEnv(t)
	enc, err := e.sc.NewEncryptor(e.server.Pub, e.user.Pub)
	if err != nil {
		t.Fatal(err)
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				msg := []byte{byte(g), byte(i)}
				ct, err := enc.Encrypt(nil, testLabel, msg)
				if err != nil {
					t.Errorf("Encrypt: %v", err)
					return
				}
				got, err := e.sc.Decrypt(e.user, upd, ct)
				if err != nil || !bytes.Equal(got, msg) {
					t.Errorf("round trip: %q %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
