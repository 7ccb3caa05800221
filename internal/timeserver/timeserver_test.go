package timeserver

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
)

// fakeClock is a settable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

type env struct {
	set    *params.Set
	sc     *core.Scheme
	key    *core.ServerKeyPair
	sched  timefmt.Schedule
	clock  *fakeClock
	server *Server
	ts     *httptest.Server
	client *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(time.Minute)
	clock := &fakeClock{t: time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)}
	srv := NewServer(set, key, sched, WithClock(clock.Now))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()))
	return &env{set: set, sc: sc, key: key, sched: sched, clock: clock, server: srv, ts: ts, client: client}
}

func TestPublishAndFetch(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())
	u, err := e.client.Update(context.Background(), label)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if u.Label != label || !e.sc.VerifyUpdate(e.key.Pub, u) {
		t.Fatal("fetched update invalid")
	}
}

func TestFutureUpdateIsRefused(t *testing.T) {
	// The paper's core trust property: no I_t before t. A request for a
	// future label must 404 and must not cause the server to sign it.
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	future := e.sched.Next(e.clock.Now())
	_, err := e.client.Update(context.Background(), future)
	if !errors.Is(err, ErrNotYetPublished) {
		t.Fatalf("future label: err=%v, want ErrNotYetPublished", err)
	}
	// Even an explicit publish attempt must fail while t is in the future.
	if err := e.server.PublishLabel(future); !errors.Is(err, ErrFutureLabel) {
		t.Fatalf("PublishLabel(future): err=%v, want ErrFutureLabel", err)
	}
}

func TestCatchUpAfterGap(t *testing.T) {
	// Server down for a while: PublishUpTo must backfill every missed
	// epoch so receivers can look up old updates (§3).
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(5 * time.Minute)
	n, err := e.server.PublishUpTo(e.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("backfilled %d updates, want 5", n)
	}
	labels, err := e.client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 6 {
		t.Fatalf("server lists %d labels, want 6", len(labels))
	}
	// A receiver who missed the broadcast gets an old update on demand.
	old := labels[0]
	u, err := e.client.Update(context.Background(), old)
	if err != nil || !e.sc.VerifyUpdate(e.key.Pub, u) {
		t.Fatalf("old update: %v %v", u, err)
	}
}

func TestClientRejectsForgedUpdate(t *testing.T) {
	// A client pinned to server A must reject updates served by
	// impostor B even over a fully compromised transport.
	e := newEnv(t)
	impostorKey, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	impostor := NewServer(e.set, impostorKey, e.sched, WithClock(e.clock.Now))
	if _, err := impostor.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(impostor.Handler())
	defer ts.Close()

	// Client pins the REAL server key but talks to the impostor.
	c := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()))
	label := e.sched.Label(e.clock.Now())
	if _, err := c.Update(context.Background(), label); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("forged update: err=%v, want ErrBadUpdate", err)
	}
	if _, err := c.Latest(context.Background()); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("forged latest: err=%v, want ErrBadUpdate", err)
	}
	if n := c.CachedLen(); n != 0 {
		t.Fatalf("CachedLen = %d after two forged updates, want 0", n)
	}
}

func TestClientCaches(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())
	before := e.server.Served()
	for i := 0; i < 5; i++ {
		if _, err := e.client.Update(context.Background(), label); err != nil {
			t.Fatal(err)
		}
	}
	after := e.server.Served()
	if after-before != 1 {
		t.Fatalf("server saw %d requests for one label, want 1 (cache)", after-before)
	}
	if e.client.CachedLen() != 1 {
		t.Fatalf("CachedLen = %d", e.client.CachedLen())
	}
}

func TestLatest(t *testing.T) {
	e := newEnv(t)
	if _, err := e.client.Latest(context.Background()); !errors.Is(err, ErrNotYetPublished) {
		t.Fatal("Latest before any publish must report not-published")
	}
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(3 * time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	u, err := e.client.Latest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u.Label != e.sched.Label(e.clock.Now()) {
		t.Fatalf("Latest = %q, want %q", u.Label, e.sched.Label(e.clock.Now()))
	}
}

func TestWaitForRelease(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	target := e.sched.Next(e.clock.Now())

	release := make(chan struct{})
	go func() {
		<-release
		e.clock.Advance(time.Minute)
		if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
			t.Errorf("PublishUpTo: %v", err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go close(release)
	u, err := e.client.WaitForRelease(ctx, target)
	if err != nil {
		t.Fatalf("WaitForRelease: %v", err)
	}
	if u.Label != target {
		t.Fatalf("released %q, want %q", u.Label, target)
	}
}

func TestWaitForReleaseContextCancel(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := e.client.WaitForRelease(ctx, e.sched.Next(e.clock.Now()))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want deadline exceeded", err)
	}
}

func TestEndToEndOverHTTP(t *testing.T) {
	// Full flow: bootstrap params from the server, pin the key, encrypt
	// for a future epoch, wait for release, decrypt — sender and receiver
	// never interact with the server beyond reading public data.
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	set, spub, sched, err := FetchBootstrap(ctx, e.ts.URL, e.ts.Client())
	if err != nil {
		t.Fatalf("FetchBootstrap: %v", err)
	}
	if set.P.Cmp(e.set.P) != 0 || sched.Granularity != e.sched.Granularity {
		t.Fatal("bootstrap mismatch")
	}
	sc := core.NewScheme(set)
	receiver, err := sc.UserKeyGen(spub, nil)
	if err != nil {
		t.Fatal(err)
	}

	releaseAt := sched.Next(e.clock.Now())
	msg := []byte("sealed bid: $42")
	ct, err := sc.EncryptCCA(nil, spub, receiver.Pub, releaseAt, msg)
	if err != nil {
		t.Fatal(err)
	}

	// Too early: update unavailable.
	c := NewClient(e.ts.URL, set, spub, WithHTTPClient(e.ts.Client()))
	if _, err := c.Update(ctx, releaseAt); !errors.Is(err, ErrNotYetPublished) {
		t.Fatalf("early fetch: err=%v", err)
	}

	// Time passes; the epoch arrives.
	e.clock.Advance(time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	upd, err := c.Update(ctx, releaseAt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.DecryptCCA(spub, receiver, upd, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("end-to-end round trip mismatch")
	}
}

func TestRunPublishesOnSchedule(t *testing.T) {
	// Run with a real (fast) schedule: 500ms epochs on the wall clock.
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(500 * time.Millisecond)
	srv := NewServer(set, key, sched)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	deadline := time.After(10 * time.Second)
	for srv.Published() < 2 {
		select {
		case <-deadline:
			t.Fatal("Run did not publish 2 updates in 10s")
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
}

func TestServerKeyEndpointRoundTrip(t *testing.T) {
	e := newEnv(t)
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// newTestHTTP serves a Server's handler over httptest with cleanup.
func newTestHTTP(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}
