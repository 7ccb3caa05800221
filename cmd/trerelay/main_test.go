package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/tre"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-upstream", "http://origin:8440"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.upstream != "http://origin:8440" || cfg.addr != ":8441" || cfg.metrics || cfg.pinPath != "" {
		t.Fatalf("wrong defaults: %+v", cfg)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		nil, // -upstream is required
		{"-upstream", "http://x", "-nosuchflag"},
		{"-upstream", "http://x", "stray"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Fatalf("parseFlags(%v) accepted bad input", args)
		}
	}
}

// startOrigin runs an in-process origin time server on its real
// publication loop and returns everything a relay consumer needs.
func startOrigin(t *testing.T) (string, *tre.Params, *tre.ServerKeyPair, tre.Schedule) {
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
			t.Errorf("origin: %v", err)
		}
	}()
	t.Cleanup(func() { cancel(); <-done })
	return ts.URL, set, key, sched
}

// startRelay runs the command against upstream and returns its bound
// address and a shutdown func returning run's error.
func startRelay(t *testing.T, upstream string, extraArgs ...string) (string, func() error) {
	t.Helper()
	args := append([]string{"-upstream", upstream, "-addr", "127.0.0.1:0"}, extraArgs...)
	cfg, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	cfg.onReady = func(addr string) { ready <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, io.Discard) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("relay did not come up")
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return errors.New("run did not return after cancel")
		}
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

func TestRelaySmokeSubscribePublishDecrypt(t *testing.T) {
	// The ci smoke chain: origin publishes, the relay binary subscribes
	// and re-serves, and a downstream receiver — bootstrapped and waiting
	// entirely through the relay — decrypts a message sealed to a future
	// epoch.
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	originURL, set, key, sched := startOrigin(t)
	addr, stop := startRelay(t, originURL)
	relayURL := "http://" + addr

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Bootstrap downstream FROM THE RELAY; the pinned key must still be
	// authenticated out of band — here against the origin key we hold.
	bset, bpub, bsched, err := tre.FetchBootstrap(ctx, relayURL, nil)
	if err != nil {
		t.Fatalf("bootstrap via relay: %v", err)
	}
	if bset.Name != set.Name || bsched.Granularity != sched.Granularity || !set.B.Equal(backend.G1, bpub.SG, key.Pub.SG) {
		t.Fatal("relay-served bootstrap differs from origin")
	}

	scheme := tre.NewScheme(set)
	alice, err := scheme.UserKeyGen(key.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	releaseAt := sched.LabelAt(sched.Index(time.Now()) + 2)
	msg := []byte("relayed timed release")
	ct, err := scheme.EncryptCCA(nil, key.Pub, alice.Pub, releaseAt, msg)
	if err != nil {
		t.Fatal(err)
	}

	down := tre.NewTimeClient(relayURL, set, key.Pub)
	upd, err := down.WaitFor(ctx, releaseAt)
	if err != nil {
		t.Fatalf("wait via relay: %v", err)
	}
	got, err := scheme.DecryptCCA(key.Pub, alice, upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after relayed release: %q %v", got, err)
	}
	if err := stop(); err != nil {
		t.Fatalf("relay shutdown: %v", err)
	}
}

func TestRelayPinMismatchRefusesToStart(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	originURL, _, _, _ := startOrigin(t)
	pin := filepath.Join(t.TempDir(), "pin")
	if err := os.WriteFile(pin, []byte("deadbeefdeadbeef\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-upstream", originURL, "-addr", "127.0.0.1:0", "-pin", pin}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx, cfg, io.Discard); err == nil {
		t.Fatal("relay started despite a server-key fingerprint mismatch")
	}
}
