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

// The end-to-end flows below run the public facade on the Type-3
// BLS12-381 backend — the same scenarios the symmetric presets cover
// in tre_test.go, threshold_test.go and beacon_test.go, proving the
// backend swap is invisible above the wire layer.

func blsParams(t *testing.T) *tre.Params {
	t.Helper()
	// Resolve through the CLI flag-pair path so the selector itself
	// stays covered.
	set, err := tre.ResolvePreset("Test160", "bls12381")
	if err != nil {
		t.Fatal(err)
	}
	if set.Name != tre.PresetBLS12381 || !set.Asymmetric() {
		t.Fatalf("ResolvePreset(bls12381) = %q (asymmetric=%v)", set.Name, set.Asymmetric())
	}
	return set
}

// TestBLSResolvePreset pins the -preset/-backend flag-pair contract.
func TestBLSResolvePreset(t *testing.T) {
	if set, err := tre.ResolvePreset("SS512", "symmetric"); err != nil || set.Name != "SS512" {
		t.Fatalf("symmetric backend: set=%v err=%v", set, err)
	}
	if set, err := tre.ResolvePreset("SS512", ""); err != nil || set.Name != "SS512" {
		t.Fatalf("empty backend: set=%v err=%v", set, err)
	}
	if _, err := tre.ResolvePreset("SS512", "bn254"); err == nil {
		t.Fatal("unknown backend must be rejected")
	}
	blsParams(t)
}

// TestBLSPublishCatchUpDecrypt is the paper's core flow on BLS12-381:
// a sender encrypts to a future minute, the time server publishes
// updates over real HTTP, a verifying client bootstraps the
// parameters from the server, catches up, and the receiver decrypts.
func TestBLSPublishCatchUpDecrypt(t *testing.T) {
	set := blsParams(t)
	scheme := tre.NewScheme(set)
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := scheme.UserKeyGen(key.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := tre.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	srv := tre.NewTimeServer(set, key, sched, tre.WithClock(func() time.Time { return now }))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// The sender seals to a label three minutes out, before the server
	// has published anything near it.
	release := sched.Label(now.Add(3 * time.Minute))
	msg := []byte("sealed for three minutes on BLS12-381")
	ct, err := scheme.EncryptCCA(nil, key.Pub, user.Pub, release, msg)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh client bootstraps everything from the server itself —
	// this round-trips the parameter marshalling (including the
	// backend= line) over HTTP.
	bset, bpub, bsched, err := tre.FetchBootstrap(context.Background(), ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if bset.Name != set.Name || !bset.Asymmetric() {
		t.Fatalf("bootstrapped set %q (asymmetric=%v)", bset.Name, bset.Asymmetric())
	}
	if bsched.Label(now) != sched.Label(now) {
		t.Fatalf("bootstrapped schedule label %q, want %q", bsched.Label(now), sched.Label(now))
	}
	client := tre.NewTimeClient(ts.URL, bset, bpub, tre.WithHTTPClient(ts.Client()))

	// Before release: the update must not exist yet.
	if _, err := srv.PublishUpTo(now); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Update(context.Background(), release); err == nil {
		t.Fatal("future update served before its time")
	}

	// Time passes; the server publishes through the release minute.
	now = now.Add(4 * time.Minute)
	if _, err := srv.PublishUpTo(now); err != nil {
		t.Fatal(err)
	}
	labels, err := client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ups, err := client.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("caught up %d of %d labels", len(ups), len(labels))
	}
	upd, err := client.Update(context.Background(), release)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scheme.DecryptCCA(key.Pub, user, upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt: %q %v", got, err)
	}

	// An update for a different minute must not open it.
	other, err := client.Update(context.Background(), sched.Label(now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheme.DecryptCCA(key.Pub, user, other, ct); !errors.Is(err, tre.ErrAuthFailed) {
		t.Fatalf("wrong-label decrypt: got %v, want ErrAuthFailed", err)
	}
}

// TestBLSBeaconArmoredRoundTrip seals to a beacon round on BLS12-381,
// ships the armored file, and opens it with the round's update.
func TestBLSBeaconArmoredRoundTrip(t *testing.T) {
	set := blsParams(t)
	scheme := tre.NewScheme(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := tre.MustRoundClock(time.Minute, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	msg := []byte("opens at round 42 on BLS12-381")

	file, err := tre.EncryptToRound(nil, scheme, clock, server.Pub, user.Pub, 42, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !tre.IsArmored(file) {
		t.Fatal("EncryptToRound output is not armored")
	}

	rc, err := tre.DecodeArmored(scheme, file)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Round != 42 || !rc.Clock.Equal(clock) {
		t.Fatalf("decoded round %d, clock equal=%v", rc.Round, rc.Clock.Equal(clock))
	}
	upd := scheme.IssueUpdate(server, rc.Label)
	got, err := tre.DecryptArmored(scheme, server.Pub, user, upd, file)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("armored decrypt: %q %v", got, err)
	}

	// The wrong round's update must not open it.
	wrongLabel, _ := clock.Label(43)
	wrong := scheme.IssueUpdate(server, wrongLabel)
	if _, err := tre.DecryptArmored(scheme, server.Pub, user, wrong, file); !errors.Is(err, tre.ErrLabelMismatch) {
		t.Fatalf("wrong-round decrypt: got %v, want ErrLabelMismatch", err)
	}

	// A symmetric-set receiver rejects the file by fingerprint — the
	// typed error, not garbage decryption.
	symScheme := tre.NewScheme(tre.MustPreset("Test160"))
	if _, err := tre.DecodeArmored(symScheme, file); !errors.Is(err, tre.ErrParamsMismatch) {
		t.Fatalf("BLS armored file under Test160: got %v, want ErrParamsMismatch", err)
	}
}

// TestBLSQuorumOverHTTP runs a 3-of-5 threshold beacon round on
// BLS12-381: five shard servers over real HTTP, a quorum client
// combining partial updates, and a receiver decrypting with the
// combined update against the group key.
func TestBLSQuorumOverHTTP(t *testing.T) {
	set := blsParams(t)
	scheme := tre.NewScheme(set)
	setup, err := tre.ThresholdDeal(set, nil, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := scheme.UserKeyGen(setup.GroupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := tre.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	label := sched.Label(now)

	msg := []byte("3-of-5 quorum on BLS12-381")
	ct, err := scheme.EncryptCCA(nil, setup.GroupPub, receiver.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}

	var shards []tre.Shard
	for _, share := range setup.Shares {
		key := tre.ShardServerKey(set, share)
		srv := tre.NewTimeServer(set, key, sched, tre.WithClock(func() time.Time { return now }))
		if _, err := srv.PublishUpTo(now); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, tre.Shard{
			Index:  share.Index,
			Client: tre.NewTimeClient(ts.URL, set, key.Pub, tre.WithHTTPClient(ts.Client())),
		})
	}

	qc := &tre.QuorumClient{Set: set, GroupPub: setup.GroupPub, K: 3, Shards: shards}
	upd, err := qc.Update(context.Background(), label)
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.VerifyUpdate(setup.GroupPub, upd) {
		t.Fatal("quorum update must verify against the group key")
	}
	got, err := scheme.DecryptCCA(setup.GroupPub, receiver, upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt with quorum update: %q %v", got, err)
	}
}

// TestSignedVariantsOnBothBackends: identity-key extraction and witness
// attestation are plain BLS signatures in G2, and ID-TRE and policy-lock
// encryption pair a G1 header against them exactly as the base scheme
// pairs against a key update — so the variants run end to end on every
// backend, off the same update stream.
func TestSignedVariantsOnBothBackends(t *testing.T) {
	for _, set := range []*tre.Params{tre.MustPreset("Test160"), blsParams(t)} {
		t.Run(set.Name, func(t *testing.T) {
			key, err := tre.NewScheme(set).ServerKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			other, err := tre.NewScheme(set).ServerKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}

			id := variants.NewIDScheme(set)
			priv := id.ExtractUserKey(key, "bob@example.org")
			if !id.VerifyUserKey(key.Pub, priv) {
				t.Fatal("extracted identity key must verify")
			}
			if id.VerifyUserKey(other.Pub, priv) {
				t.Fatal("identity key verified under a foreign server key")
			}
			priv.ID = "mallory@example.org"
			if id.VerifyUserKey(key.Pub, priv) {
				t.Fatal("identity key verified for a different identity")
			}

			pl := variants.NewPolicyScheme(set)
			att := pl.Attest(key, "task X is complete")
			if !pl.VerifyAttestation(key.Pub, att) {
				t.Fatal("attestation must verify")
			}
			if pl.VerifyAttestation(other.Pub, att) {
				t.Fatal("attestation verified under a foreign witness key")
			}
			att.Condition = "task Y is complete"
			if pl.VerifyAttestation(key.Pub, att) {
				t.Fatal("attestation verified for a different condition")
			}

			// ...and so does the whole flow: seal to an identity, publish the
			// one broadcast update, open; then the same under a policy lock
			// once the witness has attested.
			const label = "2026-07-05T12:00:00Z"
			scheme := tre.NewScheme(set)
			msg := []byte("same update stream, every variant, either backend")

			idCT, err := id.EncryptCCA(nil, key.Pub, "bob@example.org", label, msg)
			if err != nil {
				t.Fatalf("ID-TRE EncryptCCA: %v", err)
			}
			upd := scheme.IssueUpdate(key, label)
			if !scheme.VerifyUpdate(key.Pub, upd) {
				t.Fatal("published update must verify")
			}
			bob := id.ExtractUserKey(key, "bob@example.org")
			if got, err := id.DecryptCCA(key.Pub, bob, upd, idCT); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("ID-TRE DecryptCCA: %q %v", got, err)
			}
			if _, err := id.DecryptCCA(key.Pub, bob, scheme.IssueUpdate(key, "too early"), idCT); !errors.Is(err, tre.ErrAuthFailed) {
				t.Fatalf("ID-TRE DecryptCCA with the wrong update: err=%v, want ErrAuthFailed", err)
			}

			receiver, err := scheme.UserKeyGen(key.Pub, nil)
			if err != nil {
				t.Fatal(err)
			}
			policy, err := variants.ParsePolicy("task X is complete & audit ok | emergency")
			if err != nil {
				t.Fatal(err)
			}
			plCT, err := pl.Encrypt(nil, key.Pub, receiver.Pub, policy, msg)
			if err != nil {
				t.Fatalf("policy Encrypt: %v", err)
			}
			if _, err := pl.Decrypt(receiver, []variants.Attestation{pl.Attest(key, "audit ok")}, plCT); !errors.Is(err, variants.ErrPolicyUnsatisfied) {
				t.Fatalf("half-attested clause: err=%v, want ErrPolicyUnsatisfied", err)
			}
			atts := []variants.Attestation{pl.Attest(key, "audit ok"), pl.Attest(key, "task X is complete")}
			if got, err := pl.Decrypt(receiver, atts, plCT); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("policy Decrypt: %q %v", got, err)
			}
		})
	}
}
