package core

import (
	"bytes"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// testEnv bundles the fixtures most tests need: a scheme over the fast
// test parameters, a server key pair, and a user bound to that server.
type testEnv struct {
	sc     *Scheme
	server *ServerKeyPair
	user   *UserKeyPair
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	set := params.MustPreset("Test160")
	sc := NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatalf("ServerKeyGen: %v", err)
	}
	user, err := sc.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	return &testEnv{sc: sc, server: server, user: user}
}

const testLabel = "2026-07-05T12:00:00Z"

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := newTestEnv(t)
	msgs := [][]byte{
		[]byte("x"),
		[]byte("the bid is $1,000,000"),
		bytes.Repeat([]byte("long message "), 100),
		{}, // empty message
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	for _, msg := range msgs {
		ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, testLabel, msg)
		if err != nil {
			t.Fatalf("Encrypt(%d bytes): %v", len(msg), err)
		}
		got, err := e.sc.Decrypt(e.user, upd, ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch: got %q want %q", got, msg)
		}
	}
}

func TestDecryptWithWrongUpdateYieldsGarbage(t *testing.T) {
	e := newTestEnv(t)
	msg := []byte("sealed until the right time")
	ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	wrong := e.sc.IssueUpdate(e.server, "some other label")
	got, err := e.sc.Decrypt(e.user, wrong, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("decryption with the wrong update must not reveal the plaintext")
	}
}

func TestDecryptWithWrongUserKeyYieldsGarbage(t *testing.T) {
	e := newTestEnv(t)
	other, err := e.sc.UserKeyGen(e.server.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	msg := []byte("for the intended receiver only")
	ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	upd := e.sc.IssueUpdate(e.server, testLabel)
	got, err := e.sc.Decrypt(other, upd, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("another user's key must not decrypt the message")
	}
}

func TestUpdateSelfAuthentication(t *testing.T) {
	e := newTestEnv(t)
	upd := e.sc.IssueUpdate(e.server, testLabel)
	if !e.sc.VerifyUpdate(e.server.Pub, upd) {
		t.Fatal("genuine update must verify")
	}

	forged := upd
	forged.Label = "forged label"
	if e.sc.VerifyUpdate(e.server.Pub, forged) {
		t.Fatal("update must not verify under a different label")
	}

	// An update from a different server must not verify.
	other, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatalf("ServerKeyGen: %v", err)
	}
	alien := e.sc.IssueUpdate(other, testLabel)
	if e.sc.VerifyUpdate(e.server.Pub, alien) {
		t.Fatal("update signed by another server must not verify")
	}

	// Tampered update point.
	bad := upd
	bad.Point = e.sc.Set.B.Add(backend.G2, upd.Point, e.sc.Set.G2)
	if e.sc.VerifyUpdate(e.server.Pub, bad) {
		t.Fatal("tampered update must not verify")
	}
}

func TestUpdateIsIdenticalForAllUsers(t *testing.T) {
	// The paper's headline scalability property: the update depends only
	// on (server key, label) — no per-user material enters IssueUpdate.
	e := newTestEnv(t)
	u1 := e.sc.IssueUpdate(e.server, testLabel)
	u2 := e.sc.IssueUpdate(e.server, testLabel)
	if !e.sc.Set.B.Equal(backend.G2, u1.Point, u2.Point) {
		t.Fatal("updates for the same label must be identical")
	}
}

func TestVerifyUserPublicKey(t *testing.T) {
	e := newTestEnv(t)
	if !e.sc.VerifyUserPublicKey(e.server.Pub, e.user.Pub) {
		t.Fatal("honest public key must verify")
	}

	// A key whose ASG half is not a·sG must be rejected (encryption
	// step 1 exists exactly to catch this).
	bad := e.user.Pub
	bad.ASG = e.sc.Set.B.Add(backend.G1, bad.ASG, e.sc.Set.G)
	if e.sc.VerifyUserPublicKey(e.server.Pub, bad) {
		t.Fatal("malformed ASG must be rejected")
	}

	// A key built against a different server must be rejected for this
	// server.
	other, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatalf("ServerKeyGen: %v", err)
	}
	alienUser, err := e.sc.UserKeyGen(other.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	if e.sc.VerifyUserPublicKey(e.server.Pub, alienUser.Pub) {
		t.Fatal("key bound to another server must be rejected")
	}

	// Identity points must be rejected.
	var zero UserPublicKey
	if e.sc.VerifyUserPublicKey(e.server.Pub, zero) {
		t.Fatal("identity public key must be rejected")
	}
}

func TestEncryptRejectsMalformedPublicKey(t *testing.T) {
	e := newTestEnv(t)
	bad := e.user.Pub
	bad.ASG = e.sc.Set.B.Add(backend.G1, bad.ASG, e.sc.Set.G)
	if _, err := e.sc.Encrypt(nil, e.server.Pub, bad, testLabel, []byte("m")); !errors.Is(err, ErrInvalidPublicKey) {
		t.Fatalf("Encrypt with malformed key: err=%v, want ErrInvalidPublicKey", err)
	}
}

func TestUserKeyFromPasswordDeterministic(t *testing.T) {
	e := newTestEnv(t)
	k1, err := e.sc.UserKeyFromPassword(e.server.Pub, []byte("hunter2"), []byte("salt"))
	if err != nil {
		t.Fatalf("UserKeyFromPassword: %v", err)
	}
	k2, err := e.sc.UserKeyFromPassword(e.server.Pub, []byte("hunter2"), []byte("salt"))
	if err != nil {
		t.Fatalf("UserKeyFromPassword: %v", err)
	}
	if k1.A.Cmp(k2.A) != 0 {
		t.Fatal("password-derived keys must be deterministic")
	}
	k3, err := e.sc.UserKeyFromPassword(e.server.Pub, []byte("hunter2"), []byte("other salt"))
	if err != nil {
		t.Fatalf("UserKeyFromPassword: %v", err)
	}
	if k1.A.Cmp(k3.A) == 0 {
		t.Fatal("different salts must give different keys")
	}
	if !e.sc.VerifyUserPublicKey(e.server.Pub, k1.Pub) {
		t.Fatal("password-derived public key must verify")
	}
}

func TestUserKeyFromScalarRange(t *testing.T) {
	e := newTestEnv(t)
	for _, a := range []*big.Int{big.NewInt(0), new(big.Int).Set(e.sc.Set.Q), new(big.Int).Neg(big.NewInt(1))} {
		if _, err := e.sc.UserKeyFromScalar(e.server.Pub, a); err == nil {
			t.Fatalf("scalar %v out of range must be rejected", a)
		}
	}
	if _, err := e.sc.UserKeyFromScalar(e.server.Pub, big.NewInt(1)); err != nil {
		t.Fatalf("scalar 1 is valid: %v", err)
	}
}

func TestUnsafeLabelDefense(t *testing.T) {
	// §5.1 item 6: a cheating server chooses its generator as G = H1(T*)
	// for the instant T* it wants to eavesdrop (then ê(rG, I_T*) alone
	// would decrypt). The sender-side defence must refuse exactly that
	// label and accept a perturbed one.
	set := params.MustPreset("Test160")
	sc := NewScheme(set)
	const target = "2026-07-05T12:00:00Z"

	evilG := sc.hashLabel(target)
	s, err := set.B.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := bls.NewPrivateKey(set, evilG, s)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sc.UserKeyGen(evil.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}

	if sc.SafeLabel(evil.Pub, target) {
		t.Fatal("SafeLabel must flag the colliding label")
	}
	if _, err := sc.Encrypt(nil, evil.Pub, user.Pub, target, []byte("m")); !errors.Is(err, ErrUnsafeLabel) {
		t.Fatalf("Encrypt: err=%v, want ErrUnsafeLabel", err)
	}
	if _, err := sc.EncryptCCA(nil, evil.Pub, user.Pub, target, []byte("m")); !errors.Is(err, ErrUnsafeLabel) {
		t.Fatalf("EncryptCCA: err=%v, want ErrUnsafeLabel", err)
	}
	enc, err := sc.NewEncryptor(evil.Pub, user.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encrypt(nil, target, []byte("m")); !errors.Is(err, ErrUnsafeLabel) {
		t.Fatalf("Encryptor: err=%v, want ErrUnsafeLabel", err)
	}

	// "T plus one second" is fine.
	const perturbed = "2026-07-05T12:00:01Z"
	if !sc.SafeLabel(evil.Pub, perturbed) {
		t.Fatal("perturbed label must be safe")
	}
	if _, err := sc.Encrypt(nil, evil.Pub, user.Pub, perturbed, []byte("m")); err != nil {
		t.Fatalf("Encrypt with perturbed label: %v", err)
	}
}

// hashCounter counts the H1 evaluations made through a parameter set.
type hashCounter struct {
	backend.Backend
	n atomic.Int64
}

func (c *hashCounter) HashToG2(domain string, msg []byte) curve.Point {
	c.n.Add(1)
	return c.Backend.HashToG2(domain, msg)
}

func TestEncryptHashesLabelOnce(t *testing.T) {
	// The §5.1 item 6 label check runs on the point the encryption
	// already hashed: one H1 per encryption, however it is made.
	for _, name := range []string{"Test160", "SS512"} {
		t.Run(name, func(t *testing.T) {
			counted := *params.MustPreset(name)
			hc := &hashCounter{Backend: counted.B}
			counted.B = hc
			sc := NewScheme(&counted)
			server, err := sc.ServerKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			user, err := sc.UserKeyGen(server.Pub, nil)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("m")
			for op, encrypt := range map[string]func() error{
				"Encrypt": func() error {
					_, err := sc.Encrypt(nil, server.Pub, user.Pub, testLabel, msg)
					return err
				},
				"EncryptCCA": func() error {
					_, err := sc.EncryptCCA(nil, server.Pub, user.Pub, testLabel, msg)
					return err
				},
				"EncryptMulti": func() error {
					_, err := sc.EncryptMulti(nil, server.Pub, []UserPublicKey{user.Pub, user.Pub}, testLabel, msg)
					return err
				},
			} {
				before := hc.n.Load()
				if err := encrypt(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				if n := hc.n.Load() - before; n != 1 {
					t.Fatalf("%s: %d HashToG2 calls, want 1", op, n)
				}
			}
		})
	}
}
