package tre_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"timedrelease/tre"
	"timedrelease/tre/variants"
)

// These tests exercise the library exclusively through the public facade
// — what a downstream user sees. Deep behaviour is covered by the
// internal packages' suites; here we pin that the public surface is
// complete and composes.

func TestPublicQuickstartFlow(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)

	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	const label = "2027-01-01T00:00:00Z"
	msg := []byte("public API round trip")

	ct, err := scheme.EncryptCCA(nil, server.Pub, alice.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	upd := scheme.IssueUpdate(server, label)
	if !scheme.VerifyUpdate(server.Pub, upd) {
		t.Fatal("update must verify")
	}
	got, err := scheme.DecryptCCA(server.Pub, alice, upd, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestPublicVariantsExist(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}

	// ID-TRE through the facade.
	id := variants.NewIDScheme(set)
	priv := id.ExtractUserKey(server, "alice")
	idCT, err := id.Encrypt(nil, server.Pub, "alice", "label", []byte("id"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := id.Decrypt(priv, scheme.IssueUpdate(server, "label"), idCT); err != nil || string(got) != "id" {
		t.Fatalf("ID-TRE: %q %v", got, err)
	}

	// Policy lock through the facade.
	pl := variants.NewPolicyScheme(set)
	user, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := variants.ParsePolicy("a & b")
	if err != nil {
		t.Fatal(err)
	}
	plCT, err := pl.Encrypt(nil, server.Pub, user.Pub, policy, []byte("pl"))
	if err != nil {
		t.Fatal(err)
	}
	atts := []variants.Attestation{pl.Attest(server, "a"), pl.Attest(server, "b")}
	if got, err := pl.Decrypt(user, atts, plCT); err != nil || string(got) != "pl" {
		t.Fatalf("policy lock: %q %v", got, err)
	}
	if _, err := pl.Decrypt(user, atts[:1], plCT); !errors.Is(err, variants.ErrPolicyUnsatisfied) {
		t.Fatalf("partial attestation: %v", err)
	}

	// Multi-server through the facade.
	multi := variants.NewMultiScheme(set)
	group := variants.ServerGroup{server.Pub}
	mUser, err := multi.UserKeyGen(group, nil)
	if err != nil {
		t.Fatal(err)
	}
	mCT, err := multi.Encrypt(nil, group, mUser.Pub, "label", []byte("ms"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := multi.Decrypt(mUser, []tre.KeyUpdate{scheme.IssueUpdate(server, "label")}, mCT); err != nil || string(got) != "ms" {
		t.Fatalf("multi-server: %q %v", got, err)
	}

	// Resilient time tree through the facade.
	rs, err := variants.NewResilientScheme(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	root, err := rs.H.RootKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	rCT, err := rs.Encrypt(nil, root.Pub, 3, []byte("tree"))
	if err != nil {
		t.Fatal(err)
	}
	cover, err := rs.PublishCover(root, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rs.Decrypt(cover, 3, rCT); err != nil || string(got) != "tree" {
		t.Fatalf("resilient: %q %v", got, err)
	}
}

func TestPublicTimeServerFlow(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := tre.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	srv := tre.NewTimeServer(set, key, sched, tre.WithClock(func() time.Time { return now }))
	if _, err := srv.PublishUpTo(now); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := tre.NewTimeClient(ts.URL, set, key.Pub, tre.WithHTTPClient(ts.Client()))
	label := sched.Label(now)
	upd, err := client.Update(context.Background(), label)
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.VerifyUpdate(key.Pub, upd) {
		t.Fatal("fetched update must verify")
	}
	if _, err := client.Update(context.Background(), sched.Next(now)); !errors.Is(err, tre.ErrNotYetPublished) {
		t.Fatalf("future label: %v", err)
	}
}

func TestPublicCodecAndEnvelope(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	codec := tre.NewCodec(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	const label = "2026-07-05T12:00:00Z"
	ct, err := scheme.EncryptCCA(nil, server.Pub, user.Pub, label, []byte("sealed"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := codec.UnmarshalEnvelope(codec.SealCCA(label, ct))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != tre.KindCCA || env.Label != label {
		t.Fatalf("envelope: %v %q", env.Kind, env.Label)
	}
}

func TestPublicParamsLifecycle(t *testing.T) {
	names := tre.PresetNames()
	if len(names) < 4 {
		t.Fatalf("presets: %v", names)
	}
	set, err := tre.GenerateParams(nil, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tre.UnmarshalParams(set.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.P.Cmp(set.P) != 0 {
		t.Fatal("params round trip mismatch")
	}
	if _, err := tre.Preset("bogus"); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestPublicArchives(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := tre.NewMemoryArchive()
	if err := mem.Put(scheme.IssueUpdate(key, "l1")); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatal("memory archive put failed")
	}
	fa, err := tre.OpenDirArchive(t.TempDir(), set, func(u tre.KeyUpdate) bool {
		return scheme.VerifyUpdate(key.Pub, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	if err := fa.Put(scheme.IssueUpdate(key, "l2")); err != nil {
		t.Fatal(err)
	}
	if _, ok := fa.Get("l2"); !ok {
		t.Fatal("durable archive get failed")
	}
}
