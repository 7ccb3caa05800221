// End-to-end integration tests: everything composed through the public
// facade against a LIVE time server running its real publication loop on
// the wall clock (500 ms epochs). These are the "whole system" checks —
// each subsystem's behaviour is pinned by its own package tests; here we
// assert the composition a deployment would actually run.
package timedrelease

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/tre"
)

// liveStack is a running server + verifying client on real time.
type liveStack struct {
	set    *tre.Params
	scheme *tre.Scheme
	key    *tre.ServerKeyPair
	sched  tre.Schedule
	server *tre.TimeServer
	client *tre.TimeClient
	url    string
	cancel context.CancelFunc
}

func startLiveStack(t *testing.T) *liveStack {
	t.Helper()
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := tre.MustSchedule(500 * time.Millisecond)
	srv := tre.NewTimeServer(set, key, sched)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("time server: %v", err)
		}
	}()
	t.Cleanup(func() { cancel(); <-done })

	return &liveStack{
		set:    set,
		scheme: scheme,
		key:    key,
		sched:  sched,
		server: srv,
		client: tre.NewTimeClient(ts.URL, set, key.Pub, tre.WithHTTPClient(ts.Client())),
		url:    ts.URL,
		cancel: cancel,
	}
}

func TestIntegrationFullLifecycleOnWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	st := startLiveStack(t)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCtx()

	alice, err := st.scheme.UserKeyGen(st.key.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Seal to an epoch two ticks ahead, then decrypt after release.
	releaseAt := st.sched.LabelAt(st.sched.Index(time.Now()) + 2)
	msg := []byte("integration: the full stack on real time")
	ct, err := st.scheme.EncryptCCA(nil, st.key.Pub, alice.Pub, releaseAt, msg)
	if err != nil {
		t.Fatal(err)
	}

	// Early fetch fails; long-poll wait succeeds once the server's Run
	// loop crosses the boundary.
	if _, err := st.client.Update(ctx, releaseAt); !errors.Is(err, tre.ErrNotYetPublished) {
		t.Fatalf("early fetch: %v", err)
	}
	upd, err := st.client.WaitForReleaseLongPoll(ctx, releaseAt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.scheme.DecryptCCA(st.key.Pub, alice, upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after live release: %q %v", got, err)
	}
}

func TestIntegrationManyReceiversOneUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	st := startLiveStack(t)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCtx()

	const nReceivers = 8
	type receiver struct {
		key *tre.UserKeyPair
		ct  *tre.CCACiphertext
	}
	releaseAt := st.sched.LabelAt(st.sched.Index(time.Now()) + 2)
	receivers := make([]receiver, nReceivers)
	for i := range receivers {
		key, err := st.scheme.UserKeyGen(st.key.Pub, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := st.scheme.EncryptCCA(nil, st.key.Pub, key.Pub, releaseAt,
			[]byte(fmt.Sprintf("message for receiver %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		receivers[i] = receiver{key: key, ct: ct}
	}

	// All receivers wait concurrently; all are released by ONE update.
	var wg sync.WaitGroup
	errs := make(chan error, nReceivers)
	for i, r := range receivers {
		wg.Add(1)
		go func(i int, r receiver) {
			defer wg.Done()
			upd, err := st.client.WaitForRelease(ctx, releaseAt, 50*time.Millisecond)
			if err != nil {
				errs <- fmt.Errorf("receiver %d wait: %w", i, err)
				return
			}
			got, err := st.scheme.DecryptCCA(st.key.Pub, r.key, upd, r.ct)
			if err != nil {
				errs <- fmt.Errorf("receiver %d decrypt: %w", i, err)
				return
			}
			if want := fmt.Sprintf("message for receiver %d", i); string(got) != want {
				errs <- fmt.Errorf("receiver %d got %q", i, got)
			}
		}(i, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The headline property, observed live: the server signed each epoch
	// once, no matter how many receivers were waiting.
	if st.server.Published() > 30 { // generous bound: runtime/500ms + backfill
		t.Fatalf("server published %d updates — expected one per epoch, not per receiver", st.server.Published())
	}
}

// startRelayTier boots a relay fed from the origin at upURL and serves
// it on ln. It returns a stop func that tears down both the relay loop
// and its HTTP front end.
func startRelayTier(t *testing.T, st *liveStack, ln net.Listener) func() {
	t.Helper()
	up := tre.NewTimeClient(st.url, st.set, st.key.Pub)
	relay := tre.NewRelay(up, st.sched,
		tre.RelayWithRetry(tre.RetryPolicy{MaxAttempts: 1, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	hs := &http.Server{Handler: relay.Handler()}
	go hs.Serve(ln)
	return func() {
		cancel()
		hs.Close()
		<-done
	}
}

// TestIntegrationRelayChainSurvivesRelayRestart is the acceptance check
// for the distribution tier: a three-deep chain (origin server → relay
// → client) releases a real ciphertext, and killing the relay mid-wait
// then restarting a FRESH one on the same address still converges —
// the replacement relay rebuilds its archive from the origin via
// catch-up and the client's stream reconnect picks the release up. At
// no point does any party besides the origin hold the master secret;
// the client verifies every update against the origin's public key, so
// the relay tier adds availability surface but zero trust surface.
func TestIntegrationRelayChainSurvivesRelayRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	st := startLiveStack(t)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancelCtx()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stopRelay := startRelayTier(t, st, ln)

	// Bootstrap THROUGH the relay: the downstream client learns
	// parameters, server key and schedule without ever talking to the
	// origin directly.
	bootSet, bootKey, _, err := tre.FetchBootstrap(ctx, "http://"+addr, nil)
	if err != nil {
		t.Fatalf("bootstrap via relay: %v", err)
	}
	if bootSet.Name != st.set.Name || !st.set.B.Equal(backend.G1, bootKey.SG, st.key.Pub.SG) {
		t.Fatal("relay served a different authority than the origin")
	}
	down := tre.NewTimeClient("http://"+addr, bootSet, bootKey,
		tre.WithRetry(tre.RetryPolicy{MaxAttempts: 60, BaseDelay: 50 * time.Millisecond, MaxDelay: 500 * time.Millisecond}))

	alice, err := st.scheme.UserKeyGen(st.key.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	releaseAt := st.sched.LabelAt(st.sched.Index(time.Now()) + 6) // ~3s out: room for the restart
	msg := []byte("released through a relay that died and came back")
	ct, err := st.scheme.EncryptCCA(nil, st.key.Pub, alice.Pub, releaseAt, msg)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		upd tre.KeyUpdate
		err error
	}
	waitDone := make(chan result, 1)
	go func() {
		upd, err := down.WaitFor(ctx, releaseAt)
		waitDone <- result{upd, err}
	}()

	// Kill the relay while the client is parked on its stream, hold the
	// address dark briefly, then start a replacement with an EMPTY
	// archive on the same address.
	time.Sleep(400 * time.Millisecond)
	stopRelay()
	time.Sleep(600 * time.Millisecond)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	stopRelay2 := startRelayTier(t, st, ln2)
	defer stopRelay2()

	res := <-waitDone
	if res.err != nil {
		t.Fatalf("wait through restarted relay: %v", res.err)
	}
	if res.upd.Label != releaseAt {
		t.Fatalf("released %q, want %q", res.upd.Label, releaseAt)
	}
	got, err := st.scheme.DecryptCCA(st.key.Pub, alice, res.upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after relay restart: %q %v", got, err)
	}

	// The replacement converged from nothing: its archive was rebuilt
	// from the origin (catch-up) and/or live stream, never from local
	// state it no longer had.
	if _, err := down.Update(ctx, st.sched.LabelAt(st.sched.Index(time.Now())-2)); err != nil {
		t.Fatalf("restarted relay is missing backfilled history: %v", err)
	}
}

func TestIntegrationVariantsComposeOverOneServer(t *testing.T) {
	// The same server key simultaneously powers TRE, ID-TRE, policy
	// locks and epoch-key insulation — one authority, many schemes.
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	const label = "2026-07-05T12:00:00Z"
	upd := scheme.IssueUpdate(server, label)

	// TRE with insulated decryption.
	alice, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	treCT, err := scheme.Encrypt(nil, server.Pub, alice.Pub, label, []byte("tre"))
	if err != nil {
		t.Fatal(err)
	}
	ek := scheme.DeriveEpochKey(alice, upd)
	if got, err := scheme.DecryptWithEpochKey(ek, treCT); err != nil || string(got) != "tre" {
		t.Fatalf("insulated TRE: %q %v", got, err)
	}

	// ID-TRE sharing the same update stream.
	id := tre.NewIDScheme(set)
	idCT, err := id.Encrypt(nil, server.Pub, "bob", label, []byte("id-tre"))
	if err != nil {
		t.Fatal(err)
	}
	bobKey := id.ExtractUserKey(server, "bob")
	if got, err := id.Decrypt(bobKey, upd, idCT); err != nil || string(got) != "id-tre" {
		t.Fatalf("ID-TRE: %q %v", got, err)
	}

	// Policy lock with a threshold policy, CCA mode.
	pl := tre.NewPolicyScheme(set)
	policy, err := tre.ThresholdPolicy(2, []string{"legal", "finance", "security"})
	if err != nil {
		t.Fatal(err)
	}
	plCT, err := pl.EncryptCCA(nil, server.Pub, alice.Pub, policy, []byte("policy"))
	if err != nil {
		t.Fatal(err)
	}
	atts := []tre.Attestation{pl.Attest(server, "security"), pl.Attest(server, "legal")}
	if got, err := pl.DecryptCCA(server.Pub, alice, atts, plCT); err != nil || string(got) != "policy" {
		t.Fatalf("policy CCA: %q %v", got, err)
	}

	// Multi-recipient broadcast under the same label.
	carol, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := scheme.EncryptMulti(nil, server.Pub,
		[]tre.UserPublicKey{alice.Pub, carol.Pub}, label, []byte("press release"))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []*tre.UserKeyPair{alice, carol} {
		if got, err := scheme.DecryptMulti(u, upd, multi, i); err != nil || string(got) != "press release" {
			t.Fatalf("multi slot %d: %q %v", i, got, err)
		}
	}
}
