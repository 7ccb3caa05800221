package timeserver

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/faulthttp"
)

// relayEnv stacks a relay on an origin env: origin → relay → downstream
// client, all verifying against the origin key.
type relayEnv struct {
	*env
	relay  *Relay
	rts    *httptest.Server
	down   *Client
	cancel context.CancelFunc
	done   chan error
}

func newRelayEnv(t *testing.T) *relayEnv {
	t.Helper()
	e := newEnv(t)
	up := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(e.ts.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))
	relay := NewRelay(up, e.sched)
	rts := httptest.NewServer(relay.Handler())
	t.Cleanup(rts.Close)
	down := NewClient(rts.URL, e.set, e.key.Pub, WithHTTPClient(rts.Client()))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- relay.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("relay.Run did not return after cancel")
		}
	})
	return &relayEnv{env: e, relay: relay, rts: rts, down: down, cancel: cancel, done: done}
}

func TestRelayServesBacklogAndLiveUpdates(t *testing.T) {
	e := newEnv(t)
	// Backlog exists BEFORE the relay starts: it must converge via the
	// aggregate catch-up path, then ride the stream for live updates.
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	backlog := e.sched.Label(e.clock.Now())

	re := &relayEnv{env: e}
	up := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(e.ts.Client()))
	re.relay = NewRelay(up, e.sched)
	re.rts = httptest.NewServer(re.relay.Handler())
	t.Cleanup(re.rts.Close)
	re.down = NewClient(re.rts.URL, e.set, e.key.Pub, WithHTTPClient(re.rts.Client()))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go re.relay.Run(ctx)

	// Backlog served downstream (poll: sync is asynchronous).
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	u, err := re.down.WaitForRelease(dctx, backlog)
	if err != nil {
		t.Fatalf("downstream backlog fetch: %v", err)
	}
	if u.Label != backlog || !e.sc.VerifyUpdate(e.key.Pub, u) {
		t.Fatal("relayed backlog update invalid")
	}

	// A live publish at the origin flows through the relay's stream.
	e.clock.Advance(time.Minute)
	next := e.sched.Label(e.clock.Now())
	got := make(chan error, 1)
	go func() {
		u, err := re.down.WaitForRelease(dctx, next)
		if err == nil && (u.Label != next || !e.sc.VerifyUpdate(e.key.Pub, u)) {
			err = errors.New("relayed live update invalid")
		}
		got <- err
	}()
	waitSubscribers(t, re.relay.Subscribers, 1)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("downstream live delivery: %v", err)
	}
	if re.relay.Ingested() < 2 {
		t.Fatalf("relay ingested %d updates, want ≥ 2", re.relay.Ingested())
	}
}

func TestRelayIngestIsOneEncodeOnePass(t *testing.T) {
	// The relay re-broadcast keeps the origin's publish contract: one
	// ingested update does one wire encode and one registry pass no
	// matter how many downstream subscribers are parked.
	re := newRelayEnv(t)
	const subs = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(re.rts.URL, re.set, re.key.Pub, WithHTTPClient(re.rts.Client()))
			c.StreamUpdates(ctx, "", func(core.KeyUpdate) error { return errStopStream })
		}()
	}
	waitSubscribers(t, re.relay.Subscribers, subs)

	encodes, passes := re.relay.hub.encodes.Load(), re.relay.hub.passes.Load()
	if err := re.server.PublishLabel(re.sched.Label(re.clock.Now())); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // every downstream subscriber got the relayed update
	if d := re.relay.hub.encodes.Load() - encodes; d != 1 {
		t.Fatalf("relay ingest did %d encodes for %d subscribers, want 1", d, subs)
	}
	if d := re.relay.hub.passes.Load() - passes; d != 1 {
		t.Fatalf("relay ingest did %d passes for %d subscribers, want 1", d, subs)
	}
}

func TestRelayConvergesAfterUpstreamOutage(t *testing.T) {
	// Cut every upstream connection for a while; once the upstream is
	// reachable again the relay must converge on the missed updates via
	// catch-up and resume serving them downstream.
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport)
	up := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		// Fail fast; the relay loop owns reconnection and backs off
		// under this policy's delays.
		WithRetry(RetryPolicy{MaxAttempts: 1, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}))
	relay := NewRelay(up, e.sched)
	rts := httptest.NewServer(relay.Handler())
	t.Cleanup(rts.Close)
	down := NewClient(rts.URL, e.set, e.key.Pub, WithHTTPClient(rts.Client()))

	// Outage first: the first several upstream requests all die.
	outage := &faulthttp.Rule{From: 1, To: 6, Err: errors.New("upstream down")}
	ft.Add(outage)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go relay.Run(ctx)

	// Published during the outage.
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	u, err := down.WaitForRelease(dctx, label)
	if err != nil {
		t.Fatalf("downstream after outage: %v", err)
	}
	if u.Label != label || !e.sc.VerifyUpdate(e.key.Pub, u) {
		t.Fatal("post-outage relayed update invalid")
	}
}

func TestRelayIngestsPastAnOversizedLabelList(t *testing.T) {
	// An upstream whose /v1/labels has outgrown the client's 1 MiB cap.
	// Labels is an error there, but the relay must not stall on it: the
	// stream's from-replay brings in the backlog, and later publishes
	// still flow through.
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	backlog := e.sched.Label(e.clock.Now())
	origin := e.server.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/labels" {
			w.Write(bytes.Repeat([]byte("x"), 1<<20+1))
			return
		}
		origin.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	up := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 1, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}))
	if _, err := up.Labels(context.Background()); err == nil {
		t.Fatal("Labels accepted an oversized list")
	}
	relay := NewRelay(up, e.sched)
	rts := httptest.NewServer(relay.Handler())
	t.Cleanup(rts.Close)
	down := NewClient(rts.URL, e.set, e.key.Pub, WithHTTPClient(rts.Client()))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- relay.Run(ctx) }()
	defer func() { cancel(); <-done }()

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if _, err := down.WaitForRelease(dctx, backlog); err != nil {
		t.Fatalf("backlog through the relay: %v", err)
	}
	waitSubscribers(t, e.server.Subscribers, 1) // the relay's upstream stream
	e.clock.Advance(time.Minute)
	next := e.sched.Label(e.clock.Now())
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	u, err := down.WaitForRelease(dctx, next)
	if err != nil {
		t.Fatalf("later publish through the relay: %v", err)
	}
	if u.Label != next || !e.sc.VerifyUpdate(e.key.Pub, u) {
		t.Fatal("relayed later update invalid")
	}
}

func TestRelayBootstrapMatchesOrigin(t *testing.T) {
	// A downstream consumer can bootstrap from the relay alone and gets
	// the ORIGIN's parameters, key and schedule — the relay adds nothing.
	re := newRelayEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	set, spub, sched, err := FetchBootstrap(ctx, re.rts.URL, re.rts.Client())
	if err != nil {
		t.Fatalf("bootstrap via relay: %v", err)
	}
	if set.Name != re.set.Name {
		t.Fatalf("relay served params %q, origin has %q", set.Name, re.set.Name)
	}
	if !re.set.B.Equal(backend.G1, spub.SG, re.key.Pub.SG) {
		t.Fatal("relay served a different server key than the origin")
	}
	if sched.Granularity != re.sched.Granularity {
		t.Fatalf("relay schedule %v, origin %v", sched.Granularity, re.sched.Granularity)
	}
}

func TestRelayHoldsNoSecretAndCannotForge(t *testing.T) {
	// A downstream client pinned to a DIFFERENT key must reject every
	// update the relay serves: the relay cannot vouch for anything, only
	// carry self-authenticating updates.
	re := newRelayEnv(t)
	if err := re.server.PublishLabel(re.sched.Label(re.clock.Now())); err != nil {
		t.Fatal(err)
	}
	wrong, err := re.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	skeptic := NewClient(re.rts.URL, re.set, wrong.Pub,
		WithHTTPClient(re.rts.Client()), WithRetry(NoRetry))

	// Wait until the relay has the update, then ask for it with the
	// wrong pin.
	deadline := time.Now().Add(10 * time.Second)
	for re.relay.Ingested() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relay never ingested the update")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := skeptic.Update(ctx, re.sched.Label(re.clock.Now())); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("differently-pinned client accepted relayed update: err=%v, want ErrBadUpdate", err)
	}
}

func TestRelayLeaksNoGoroutinesAfterDrain(t *testing.T) {
	// The relay counterpart of TestServerLeaksNoGoroutinesAfterDrain:
	// downstream streams and long-polls on the relay, one update relayed
	// from the origin, then Drain. Only the relay's own upstream stream,
	// already running before the count, may stay.
	re := newRelayEnv(t)
	waitSubscribers(t, re.server.Subscribers, 1) // the relay's upstream stream
	re.rts.Client().CloseIdleConnections()
	before := runtime.NumGoroutine()
	parkAndDrain(t, re.env, re.down, re.relay.Subscribers, re.relay.Drain)
	re.rts.Client().CloseIdleConnections()
	waitGoroutines(t, before, "relayed streams, long-polls and Drain")
}
