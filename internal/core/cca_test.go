package core

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
)

func TestFORoundTrip(t *testing.T) {
	e := newTestEnv(t)
	msg := []byte("chosen-ciphertext secure payload")
	ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptCCA: %v", err)
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	got, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, ct)
	if err != nil {
		t.Fatalf("DecryptCCA: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q != %q", got, msg)
	}
}

func TestFORejectsWrongUpdate(t *testing.T) {
	e := newTestEnv(t)
	ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, testLabel, []byte("early bird"))
	if err != nil {
		t.Fatalf("EncryptCCA: %v", err)
	}
	wrong := e.sc.IssueUpdate(e.server, "earlier label")
	if _, err := e.sc.DecryptCCA(e.server.Pub, e.user, wrong, ct); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("decrypting with wrong update: err=%v, want ErrAuthFailed", err)
	}
}

func TestFORejectsTampering(t *testing.T) {
	e := newTestEnv(t)
	msg := []byte("integrity matters")
	upd := e.sc.IssueUpdate(e.server, testLabel)

	mutations := map[string]func(*CCACiphertext){
		"flip V byte": func(ct *CCACiphertext) { ct.V[0] ^= 1 },
		"flip W byte": func(ct *CCACiphertext) { ct.W[0] ^= 1 },
		"replace U":   func(ct *CCACiphertext) { ct.U = e.sc.Set.B.Add(backend.G1, ct.U, e.sc.Set.G) },
	}
	for name, mutate := range mutations {
		ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, testLabel, msg)
		if err != nil {
			t.Fatalf("EncryptCCA: %v", err)
		}
		mutate(ct)
		if _, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, ct); err == nil {
			t.Fatalf("%s: tampered ciphertext must be rejected", name)
		}
	}
}

func TestFORejectsMalformedCiphertext(t *testing.T) {
	e := newTestEnv(t)
	upd := e.sc.IssueUpdate(e.server, testLabel)
	if _, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, nil); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("nil ciphertext: err=%v", err)
	}
	ct := &CCACiphertext{W: []byte("short")}
	if _, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, ct); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("short W: err=%v", err)
	}
}

func TestREACTRoundTrip(t *testing.T) {
	e := newTestEnv(t)
	msg := []byte("REACT payload")
	ct, err := e.sc.EncryptREACT(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptREACT: %v", err)
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	got, err := e.sc.DecryptREACT(e.user, upd, ct)
	if err != nil {
		t.Fatalf("DecryptREACT: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q != %q", got, msg)
	}
}

func TestREACTRejectsTampering(t *testing.T) {
	e := newTestEnv(t)
	upd := e.sc.IssueUpdate(e.server, testLabel)
	mutations := map[string]func(*REACTCiphertext){
		"flip V byte":   func(ct *REACTCiphertext) { ct.V[0] ^= 1 },
		"flip W byte":   func(ct *REACTCiphertext) { ct.W[0] ^= 1 },
		"flip tag byte": func(ct *REACTCiphertext) { ct.Tag[0] ^= 1 },
		"replace U":     func(ct *REACTCiphertext) { ct.U = e.sc.Set.B.Add(backend.G1, ct.U, e.sc.Set.G) },
	}
	for name, mutate := range mutations {
		ct, err := e.sc.EncryptREACT(nil, e.server.Pub, e.user.Pub, testLabel, []byte("payload"))
		if err != nil {
			t.Fatalf("EncryptREACT: %v", err)
		}
		mutate(ct)
		if _, err := e.sc.DecryptREACT(e.user, upd, ct); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("%s: err=%v, want ErrAuthFailed", name, err)
		}
	}
}

func TestREACTRejectsWrongUpdate(t *testing.T) {
	e := newTestEnv(t)
	ct, err := e.sc.EncryptREACT(nil, e.server.Pub, e.user.Pub, testLabel, []byte("m"))
	if err != nil {
		t.Fatalf("EncryptREACT: %v", err)
	}
	wrong := e.sc.IssueUpdate(e.server, "another label")
	if _, err := e.sc.DecryptREACT(e.user, wrong, ct); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("wrong update: err=%v, want ErrAuthFailed", err)
	}
}

func TestHybridRoundTripAndTampering(t *testing.T) {
	e := newTestEnv(t)
	msg := bytes.Repeat([]byte("bulk data "), 1000)
	ct, err := e.sc.EncryptHybrid(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptHybrid: %v", err)
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	got, err := e.sc.DecryptHybrid(e.user, upd, ct)
	if err != nil {
		t.Fatalf("DecryptHybrid: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("hybrid round trip mismatch")
	}

	ct.Box[len(ct.Box)/2] ^= 1
	if _, err := e.sc.DecryptHybrid(e.user, upd, ct); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("tampered box: err=%v, want ErrAuthFailed", err)
	}

	wrong := e.sc.IssueUpdate(e.server, "different label")
	ct2, err := e.sc.EncryptHybrid(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptHybrid: %v", err)
	}
	if _, err := e.sc.DecryptHybrid(e.user, wrong, ct2); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("wrong update: err=%v, want ErrAuthFailed", err)
	}
}

func TestEpochKeyDecryption(t *testing.T) {
	e := newTestEnv(t)
	msg := []byte("decrypted on the insecure device")
	upd := e.sc.IssueUpdate(e.server, testLabel)
	ek := e.sc.DeriveEpochKey(e.user, upd)

	if !e.sc.VerifyEpochKey(e.server.Pub, e.user.Pub, upd, ek) {
		t.Fatal("honest epoch key must verify")
	}

	ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := e.sc.DecryptWithEpochKey(ek, ct)
	if err != nil {
		t.Fatalf("DecryptWithEpochKey: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("epoch-key decryption mismatch")
	}

	// CCA variant.
	cct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptCCA: %v", err)
	}
	got, err = e.sc.DecryptCCAWithEpochKey(e.server.Pub, ek, cct)
	if err != nil {
		t.Fatalf("DecryptCCAWithEpochKey: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("epoch-key CCA decryption mismatch")
	}
}

func TestEpochKeyIsolation(t *testing.T) {
	// A compromised epoch key must not decrypt another epoch's traffic —
	// the key-insulation property (§5.3.3).
	e := newTestEnv(t)
	msg := []byte("next epoch's secret")
	updNow := e.sc.IssueUpdate(e.server, "epoch-1")
	ekNow := e.sc.DeriveEpochKey(e.user, updNow)

	ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, "epoch-2", msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := e.sc.DecryptWithEpochKey(ekNow, ct)
	if err != nil {
		t.Fatalf("DecryptWithEpochKey: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("epoch-1 key must not decrypt epoch-2 ciphertexts")
	}

	// Verification must also bind the epoch key to its label.
	updNext := e.sc.IssueUpdate(e.server, "epoch-2")
	if e.sc.VerifyEpochKey(e.server.Pub, e.user.Pub, updNext, ekNow) {
		t.Fatal("epoch key must not verify against another epoch's update")
	}
}

func TestReKeyForNewServer(t *testing.T) {
	e := newTestEnv(t)
	newServer, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatalf("ServerKeyGen: %v", err)
	}
	newPub := e.sc.ReKeyForServer(e.user, newServer.Pub)

	if !e.sc.VerifyReKeyedKey(e.user.Pub.AG, newServer.Pub, newPub) {
		t.Fatal("honest re-keyed public key must verify against the certified AG")
	}
	if !e.sc.VerifyUserPublicKey(newServer.Pub, newPub) {
		t.Fatal("re-keyed key must be well-formed for the new server")
	}

	// An attacker who doesn't know a cannot fake a key for the new
	// server that links to the victim's certified AG.
	attacker, err := e.sc.UserKeyGen(newServer.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	forged := UserPublicKey{AG: e.user.Pub.AG, ASG: attacker.Pub.ASG}
	if e.sc.VerifyReKeyedKey(e.user.Pub.AG, newServer.Pub, forged) {
		t.Fatal("forged re-keyed key must be rejected")
	}

	// End-to-end under the new server.
	msg := []byte("new server, same certificate")
	ct, err := e.sc.Encrypt(nil, newServer.Pub, newPub, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	upd := e.sc.IssueUpdate(newServer, testLabel)
	got, err := e.sc.Decrypt(e.user, upd, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip under the new server failed")
	}
}

func TestMultiRecipientRoundTrip(t *testing.T) {
	e := newTestEnv(t)
	// Three recipients including e.user.
	users := []*UserKeyPair{e.user}
	for i := 0; i < 2; i++ {
		u, err := e.sc.UserKeyGen(e.server.Pub, nil)
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	pubs := make([]UserPublicKey, len(users))
	for i, u := range users {
		pubs[i] = u.Pub
	}
	msg := []byte("press release under embargo")
	ct, err := e.sc.EncryptMulti(nil, e.server.Pub, pubs, testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Vs) != len(users) {
		t.Fatalf("slots = %d", len(ct.Vs))
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	for i, u := range users {
		got, err := e.sc.DecryptMulti(u, upd, ct, i)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("recipient %d: %q %v", i, got, err)
		}
	}
	// Wrong slot yields garbage (different recipient's mask).
	got, err := e.sc.DecryptMulti(users[0], upd, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("cross-slot decryption must not succeed")
	}
	// Validation.
	if _, err := e.sc.DecryptMulti(users[0], upd, ct, 99); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("bad index: err=%v", err)
	}
	if _, err := e.sc.EncryptMulti(nil, e.server.Pub, nil, testLabel, msg); err == nil {
		t.Fatal("no recipients must fail")
	}
	bad := pubs
	bad[1].ASG = e.sc.Set.B.Add(backend.G1, bad[1].ASG, e.sc.Set.G)
	if _, err := e.sc.EncryptMulti(nil, e.server.Pub, bad, testLabel, msg); !errors.Is(err, ErrInvalidPublicKey) {
		t.Fatalf("malformed recipient: err=%v", err)
	}
}

func TestMultiRecipientSizeAdvantage(t *testing.T) {
	// The shared header saves (n-1) points versus n separate ciphertexts.
	e := newTestEnv(t)
	const n, msgLen = 10, 64
	multi := e.sc.MultiSize(n, msgLen)
	point := e.sc.Set.B.PointLen(backend.G1)
	separate := n * (point + msgLen)
	if multi >= separate {
		t.Fatalf("multi %dB must beat %dB separate", multi, separate)
	}
	if separate-multi != (n-1)*point {
		t.Fatalf("saving = %dB, want %dB", separate-multi, (n-1)*point)
	}
}
