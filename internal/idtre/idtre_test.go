package idtre

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

const (
	testID    = "alice@example.org"
	testLabel = "2026-07-05T12:00:00Z"
)

type env struct {
	sc     *Scheme
	tre    *core.Scheme
	server *core.ServerKeyPair
	alice  UserPrivateKey
}

// onBothBackends runs body against a fresh fixture on the paper's Type-1
// setting and on BLS12-381: the scheme is the same code on both.
func onBothBackends(t *testing.T, body func(*testing.T, *env)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) { body(t, newEnv(t, preset)) })
	}
}

func newEnv(t *testing.T, preset string) *env {
	t.Helper()
	set := params.MustPreset(preset)
	sc := NewScheme(set)
	tre := core.NewScheme(set)
	server, err := tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatalf("ServerKeyGen: %v", err)
	}
	return &env{sc: sc, tre: tre, server: server, alice: sc.ExtractUserKey(server, testID)}
}

func TestRoundTrip(t *testing.T) { onBothBackends(t, testRoundTrip) }

func testRoundTrip(t *testing.T, e *env) {
	msg := []byte("identity-addressed, time-locked")
	ct, err := e.sc.Encrypt(nil, e.server.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	upd := e.tre.IssueUpdate(e.server, testLabel)
	got, err := e.sc.Decrypt(e.alice, upd, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q != %q", got, msg)
	}
}

func TestWrongIdentityOrUpdateYieldsGarbage(t *testing.T) {
	onBothBackends(t, testWrongIdentityOrUpdateYieldsGarbage)
}

func testWrongIdentityOrUpdateYieldsGarbage(t *testing.T, e *env) {
	msg := []byte("for alice after noon")
	ct, err := e.sc.Encrypt(nil, e.server.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	upd := e.tre.IssueUpdate(e.server, testLabel)

	bob := e.sc.ExtractUserKey(e.server, "bob@example.org")
	if got, err := e.sc.Decrypt(bob, upd, ct); err != nil {
		t.Fatalf("Decrypt: %v", err)
	} else if bytes.Equal(got, msg) {
		t.Fatal("bob's key must not decrypt alice's message")
	}

	early := e.tre.IssueUpdate(e.server, "some earlier label")
	if got, err := e.sc.Decrypt(e.alice, early, ct); err != nil {
		t.Fatalf("Decrypt: %v", err)
	} else if bytes.Equal(got, msg) {
		t.Fatal("wrong update must not decrypt the message")
	}
}

func TestVerifyUserKey(t *testing.T) { onBothBackends(t, testVerifyUserKey) }

func testVerifyUserKey(t *testing.T, e *env) {
	if !e.sc.VerifyUserKey(e.server.Pub, e.alice) {
		t.Fatal("honest extracted key must verify")
	}
	bad := e.alice
	bad.ID = "mallory@example.org"
	if e.sc.VerifyUserKey(e.server.Pub, bad) {
		t.Fatal("key must not verify for a different identity")
	}
	bad2 := e.alice
	bad2.D = e.sc.Set.B.Add(backend.G2, e.alice.D, e.sc.Set.G2)
	if e.sc.VerifyUserKey(e.server.Pub, bad2) {
		t.Fatal("tampered key must not verify")
	}
}

func TestInherentKeyEscrow(t *testing.T) { onBothBackends(t, testInherentKeyEscrow) }

func testInherentKeyEscrow(t *testing.T, e *env) {
	// §5.2: "the server could decrypt all the messages" — the key-escrow
	// weakness that motivates the non-identity-based TRE. Demonstrate the
	// server decrypting without ever contacting the receiver.
	msg := []byte("nothing is hidden from the PKG")
	ct, err := e.sc.Encrypt(nil, e.server.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := e.sc.EscrowDecrypt(e.server, testID, testLabel, ct)
	if err != nil {
		t.Fatalf("EscrowDecrypt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("the ID-TRE server must be able to escrow-decrypt (paper §5.2)")
	}
}

func TestSharedUpdateWithTRE(t *testing.T) { onBothBackends(t, testSharedUpdateWithTRE) }

func testSharedUpdateWithTRE(t *testing.T, e *env) {
	// The very same broadcast update serves both TRE and ID-TRE — one
	// server, one update stream, two schemes.
	user, err := e.tre.UserKeyGen(e.server.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	upd := e.tre.IssueUpdate(e.server, testLabel)

	msg1 := []byte("to a certified public key")
	ct1, err := e.tre.Encrypt(nil, e.server.Pub, user.Pub, testLabel, msg1)
	if err != nil {
		t.Fatalf("tre.Encrypt: %v", err)
	}
	got1, err := e.tre.Decrypt(user, upd, ct1)
	if err != nil {
		t.Fatalf("tre.Decrypt: %v", err)
	}

	msg2 := []byte("to an identity")
	ct2, err := e.sc.Encrypt(nil, e.server.Pub, testID, testLabel, msg2)
	if err != nil {
		t.Fatalf("idtre.Encrypt: %v", err)
	}
	got2, err := e.sc.Decrypt(e.alice, upd, ct2)
	if err != nil {
		t.Fatalf("idtre.Decrypt: %v", err)
	}

	if !bytes.Equal(got1, msg1) || !bytes.Equal(got2, msg2) {
		t.Fatal("one update must serve both schemes")
	}
}

func TestFORoundTripAndTampering(t *testing.T) { onBothBackends(t, testFORoundTripAndTampering) }

func testFORoundTripAndTampering(t *testing.T, e *env) {
	msg := []byte("CCA-secure ID-TRE")
	ct, err := e.sc.EncryptCCA(nil, e.server.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptCCA: %v", err)
	}
	upd := e.tre.IssueUpdate(e.server, testLabel)
	got, err := e.sc.DecryptCCA(e.server.Pub, e.alice, upd, ct)
	if err != nil {
		t.Fatalf("DecryptCCA: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("FO round trip mismatch")
	}

	ct.V[0] ^= 1
	if _, err := e.sc.DecryptCCA(e.server.Pub, e.alice, upd, ct); !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("tampered FO ciphertext: err=%v, want ErrAuthFailed", err)
	}

	ct2, err := e.sc.EncryptCCA(nil, e.server.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatalf("EncryptCCA: %v", err)
	}
	wrong := e.tre.IssueUpdate(e.server, "wrong label")
	if _, err := e.sc.DecryptCCA(e.server.Pub, e.alice, wrong, ct2); !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("wrong update: err=%v, want ErrAuthFailed", err)
	}
}

func TestSplitAuthorityRoundTrip(t *testing.T) { onBothBackends(t, testSplitAuthorityRoundTrip) }

func testSplitAuthorityRoundTrip(t *testing.T, e *env) {
	// Independent PKG and time server.
	pkg, err := e.tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	timeSrv, err := e.tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("two authorities, one ciphertext")
	ct, err := e.sc.SplitEncrypt(nil, pkg.Pub, timeSrv.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}
	priv := e.sc.ExtractUserKey(pkg, testID)
	upd := e.tre.IssueUpdate(timeSrv, testLabel)
	got, err := e.sc.SplitDecrypt(priv, upd, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("split round trip mismatch")
	}
}

func TestSplitAuthorityNeedsBothHalves(t *testing.T) {
	onBothBackends(t, testSplitAuthorityNeedsBothHalves)
}

func testSplitAuthorityNeedsBothHalves(t *testing.T, e *env) {
	pkg, err := e.tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	timeSrv, err := e.tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("needs pkg key AND time update")
	ct, err := e.sc.SplitEncrypt(nil, pkg.Pub, timeSrv.Pub, testID, testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}

	// Identity key from the WRONG PKG (e.g. the time server trying to
	// play PKG) must fail.
	alienPriv := e.sc.ExtractUserKey(timeSrv, testID)
	upd := e.tre.IssueUpdate(timeSrv, testLabel)
	if got, _ := e.sc.SplitDecrypt(alienPriv, upd, ct); bytes.Equal(got, msg) {
		t.Fatal("time server must not be able to extract usable identity keys")
	}

	// Right identity key, update from the WRONG time server (the PKG
	// trying to mint updates) must fail.
	priv := e.sc.ExtractUserKey(pkg, testID)
	alienUpd := e.tre.IssueUpdate(pkg, testLabel)
	if got, _ := e.sc.SplitDecrypt(priv, alienUpd, ct); bytes.Equal(got, msg) {
		t.Fatal("PKG must not be able to mint the time half before release")
	}

	// Wrong label also fails.
	early := e.tre.IssueUpdate(timeSrv, "too early")
	if got, _ := e.sc.SplitDecrypt(priv, early, ct); bytes.Equal(got, msg) {
		t.Fatal("wrong-label update must not decrypt")
	}
}
