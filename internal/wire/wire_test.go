package wire

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

type env struct {
	codec  *Codec
	sc     *core.Scheme
	server *core.ServerKeyPair
	user   *core.UserKeyPair
}

func newEnv(t *testing.T) *env { return newEnvOn(t, "Test160") }

func newEnvOn(t *testing.T, preset string) *env {
	t.Helper()
	set := params.MustPreset(preset)
	sc := core.NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sc.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &env{codec: NewCodec(set), sc: sc, server: server, user: user}
}

func TestServerPublicKeyRoundTrip(t *testing.T) {
	e := newEnv(t)
	enc := e.codec.MarshalServerPublicKey(e.server.Pub)
	back, err := e.codec.UnmarshalServerPublicKey(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	b := e.codec.Set.B
	if !b.Equal(backend.G1, back.G, e.server.Pub.G) || !b.Equal(backend.G1, back.SG, e.server.Pub.SG) {
		t.Fatal("round trip mismatch")
	}
	// Truncation and trailing garbage rejected.
	if _, err := e.codec.UnmarshalServerPublicKey(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated key must be rejected")
	}
	if _, err := e.codec.UnmarshalServerPublicKey(append(enc, 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: err=%v, want ErrTrailing", err)
	}
	// Identity halves rejected.
	inf := e.codec.Set.B.AppendPoint(nil, backend.G1, curve.Infinity())
	bad := append(append([]byte{}, inf...), enc[len(inf):]...)
	if _, err := e.codec.UnmarshalServerPublicKey(bad); err == nil {
		t.Fatal("identity G must be rejected")
	}
}

func TestUserPublicKeyRoundTrip(t *testing.T) {
	e := newEnv(t)
	enc := e.codec.MarshalUserPublicKey(e.user.Pub)
	back, err := e.codec.UnmarshalUserPublicKey(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !e.sc.VerifyUserPublicKey(e.server.Pub, back) {
		t.Fatal("decoded key must still verify")
	}
}

func TestKeyUpdateRoundTrip(t *testing.T) {
	e := newEnv(t)
	upd := e.sc.IssueUpdate(e.server, "2026-07-05T12:00:00Z")
	enc := e.codec.MarshalKeyUpdate(upd)
	back, err := e.codec.UnmarshalKeyUpdate(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Label != upd.Label || !e.codec.Set.B.Equal(backend.G2, back.Point, upd.Point) {
		t.Fatal("round trip mismatch")
	}
	if !e.sc.VerifyUpdate(e.server.Pub, back) {
		t.Fatal("decoded update must verify")
	}
	// Flipping a point byte must break decoding or verification.
	enc[len(enc)-1] ^= 1
	back2, err := e.codec.UnmarshalKeyUpdate(enc)
	if err == nil && e.sc.VerifyUpdate(e.server.Pub, back2) {
		t.Fatal("tampered update must not decode-and-verify")
	}
}

func TestCiphertextRoundTrips(t *testing.T) {
	e := newEnv(t)
	const label = "2026-07-05T12:00:00Z"
	msg := []byte("wire round trip")
	upd := e.sc.IssueUpdate(e.server, label)

	t.Run("basic", func(t *testing.T) {
		ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, label, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.codec.UnmarshalCiphertext(e.codec.MarshalCiphertext(ct))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.sc.Decrypt(e.user, upd, back)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("decrypt after round trip: %q %v", got, err)
		}
	})

	t.Run("cca", func(t *testing.T) {
		ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, label, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.codec.UnmarshalCCACiphertext(e.codec.MarshalCCACiphertext(ct))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, back)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("decrypt after round trip: %q %v", got, err)
		}
	})

	t.Run("react", func(t *testing.T) {
		ct, err := e.sc.EncryptREACT(nil, e.server.Pub, e.user.Pub, label, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.codec.UnmarshalREACTCiphertext(e.codec.MarshalREACTCiphertext(ct))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.sc.DecryptREACT(e.user, upd, back)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("decrypt after round trip: %q %v", got, err)
		}
	})

	t.Run("hybrid", func(t *testing.T) {
		ct, err := e.sc.EncryptHybrid(nil, e.server.Pub, e.user.Pub, label, msg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.codec.UnmarshalHybridCiphertext(e.codec.MarshalHybridCiphertext(ct))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.sc.DecryptHybrid(e.user, upd, back)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("decrypt after round trip: %q %v", got, err)
		}
	})
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := newEnv(t)
	const label = "2026-07-05T12:00:00Z"
	ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, label, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	sealed := e.codec.SealCCA(label, ct)
	env, err := e.codec.UnmarshalEnvelope(sealed)
	if err != nil {
		t.Fatalf("UnmarshalEnvelope: %v", err)
	}
	if env.Kind != KindCCA || env.Label != label {
		t.Fatalf("envelope header: kind=%v label=%q", env.Kind, env.Label)
	}
	back, err := e.codec.UnmarshalCCACiphertext(env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	upd := e.sc.IssueUpdate(e.server, label)
	got, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, back)
	if err != nil || string(got) != "hello" {
		t.Fatalf("decrypt: %q %v", got, err)
	}
}

func TestEnvelopeWithheldLabel(t *testing.T) {
	// Release-time privacy: a sender may withhold the label entirely.
	e := newEnv(t)
	ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, "secret-label", []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	sealed := e.codec.SealBasic("", ct)
	env, err := e.codec.UnmarshalEnvelope(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if env.Label != "" {
		t.Fatal("label must be withheld")
	}
}

func TestEnvelopeRejections(t *testing.T) {
	e := newEnv(t)
	good := e.codec.MarshalEnvelope(Envelope{Kind: KindBasic, Label: "l", Payload: []byte("p")})

	badVersion := append([]byte{}, good...)
	badVersion[0] = 9
	if _, err := e.codec.UnmarshalEnvelope(badVersion); err == nil {
		t.Fatal("unknown version must be rejected")
	}
	badKind := append([]byte{}, good...)
	badKind[1] = 0xEE
	if _, err := e.codec.UnmarshalEnvelope(badKind); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
	if _, err := e.codec.UnmarshalEnvelope(good[:3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated envelope: err=%v", err)
	}
	if _, err := e.codec.UnmarshalEnvelope(append(good, 1)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing bytes: err=%v", err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{KindBasic: "basic", KindCCA: "cca", KindREACT: "react", KindHybrid: "hybrid", Kind(77): "kind(77)"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", byte(k), k.String(), want)
		}
	}
}

func TestUnmarshalRejectsNonSubgroupPoint(t *testing.T) {
	e := newEnv(t)
	c, _ := e.codec.Set.B.(*backend.Symmetric).Type1()
	// Find a curve point outside the subgroup and try to pass it off as a
	// ciphertext header.
	for i := 0; i < 128; i++ {
		p, err := c.RandomPoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.InSubgroup(p) {
			continue
		}
		enc := append(c.Marshal(p), 0, 0, 0, 0) // empty V
		if _, err := e.codec.UnmarshalCiphertext(enc); err == nil {
			t.Fatal("non-subgroup U must be rejected")
		}
		return
	}
	t.Skip("no non-subgroup point found")
}
