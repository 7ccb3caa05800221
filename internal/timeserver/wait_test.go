package timeserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/faulthttp"
	"timedrelease/internal/obs"
)

func TestLongPollDeliversOnPublish(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	target := e.sched.Next(e.clock.Now())

	// Start several long-poll waiters before the update exists.
	const waiters = 4
	results := make(chan error, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			u, err := e.client.WaitForRelease(ctx, target)
			if err == nil && u.Label != target {
				err = errors.New("wrong label")
			}
			results <- err
		}()
	}
	started.Wait()
	time.Sleep(50 * time.Millisecond) // let the requests reach the handler

	// Publish: every waiter must return promptly.
	e.clock.Advance(time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("waiter %d: %v", i, err)
			}
		case <-deadline:
			t.Fatal("long-poll waiters did not return after publish")
		}
	}
}

func TestLongPollHoldFitsInsidePerAttemptBound(t *testing.T) {
	// Each held poll must come back (404) before the retry policy's
	// per-attempt bound cancels it. Asking the server for its default
	// 25 s hold under a 300 ms bound turns every poll into a transport
	// error, and the policy's three attempts are gone before a publish
	// at 1.2 s.
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	target := e.sched.Next(e.clock.Now())
	c := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(e.ts.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, PerAttempt: 300 * time.Millisecond}))

	type result struct {
		u   core.KeyUpdate
		err error
	}
	got := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		u, err := c.WaitForRelease(ctx, target)
		got <- result{u, err}
	}()
	time.Sleep(1200 * time.Millisecond)
	e.clock.Advance(time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("WaitForRelease under a 300 ms per-attempt bound: %v", r.err)
		}
		if r.u.Label != target || !e.sc.VerifyUpdate(e.key.Pub, r.u) {
			t.Fatal("returned update is not the verified update for the label")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no answer 10 s after the publish")
	}
}

func TestLongPollTimesOutWith404(t *testing.T) {
	e := newEnv(t)
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/wait/never?timeout=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestLongPollImmediateWhenAlreadyPublished(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())
	start := time.Now()
	u, err := e.client.WaitForRelease(context.Background(), label)
	if err != nil {
		t.Fatal(err)
	}
	if u.Label != label {
		t.Fatalf("label %q", u.Label)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("already-published long-poll should return immediately")
	}
}

func TestLongPollRejectsBadTimeout(t *testing.T) {
	e := newEnv(t)
	for _, q := range []string{"timeout=bogus", "timeout=-5s"} {
		resp, err := e.ts.Client().Get(fmt.Sprintf("%s/v1/wait/x?%s", e.ts.URL, q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestLongPollVerifiesAgainstPinnedKey(t *testing.T) {
	// Long-poll from an impostor server must fail verification just like
	// the plain fetch path.
	e := newEnv(t)
	impostorKey, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	impostor := NewServer(e.set, impostorKey, e.sched, WithClock(e.clock.Now))
	if _, err := impostor.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	ts := newTestHTTP(t, impostor)
	c := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()))
	label := e.sched.Label(e.clock.Now())
	if _, err := c.WaitForRelease(context.Background(), label); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("err=%v, want ErrBadUpdate", err)
	}
}

func TestWaitForLongPollBacksOffOnEarly404(t *testing.T) {
	// A server (or proxy) without /v1/wait 404s the long-poll at once
	// instead of after the hold. WaitForRelease must back off under the
	// retry policy, not re-issue as fast as the network answers.
	e := newEnv(t)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()))

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := client.WaitForRelease(ctx, e.sched.Label(e.clock.Now())); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitForRelease against an all-404 server: %v, want the context's deadline", err)
	}
	if n := requests.Load(); n > 10 {
		t.Fatalf("%d requests in 300 ms, want at most 10", n)
	}
}

func TestWaitForReleaseRetriesCutLongPoll(t *testing.T) {
	// The first long-poll is cut mid-body when the publish answers it;
	// the retry policy re-issues it and the archive answers at once.
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{PathContains: "/v1/wait/", From: 1, To: 1, TruncateTo: 3})
	client := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, PerAttempt: 10 * time.Second}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	label := e.sched.Label(e.clock.Now())
	got := make(chan error, 1)
	go func() {
		u, err := client.WaitForRelease(ctx, label)
		if err == nil && (u.Label != label || !e.sc.VerifyUpdate(e.key.Pub, u)) {
			err = errors.New("not the verified update for the label")
		}
		got <- err
	}()
	waitSubscribers(t, e.server.Subscribers, 1)
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("WaitForRelease after a cut long-poll: %v", err)
	}
	if n := ft.Requests(); n != 2 {
		t.Fatalf("%d requests, want the cut long-poll and one retry", n)
	}
}

func TestWaitForGivesUpWhenServerUnreachable(t *testing.T) {
	// When the server is down entirely, WaitForRelease gives up once the
	// retry policy's attempts are spent instead of spinning forever.
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{Err: errors.New("connection refused")})
	client := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.WaitForRelease(ctx, e.sched.Label(e.clock.Now())); err == nil {
		t.Fatal("WaitForRelease succeeded against an unreachable server")
	}
	if n := ft.Requests(); n != 2 {
		t.Fatalf("%d requests, want MaxAttempts = 2", n)
	}
}

func TestWaitForReleaseLeaksNoGoroutines(t *testing.T) {
	// However a wait ends — the publish answers it, the caller cancels,
	// or the server drains (503) — no client goroutine outlives it and
	// the hub holds no subscription for it.
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, e *env, cancel context.CancelFunc)
		ok   func(error) bool
	}{
		{"publish", func(t *testing.T, e *env, _ context.CancelFunc) {
			e.clock.Advance(time.Minute)
			if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
				t.Error(err)
			}
		}, func(err error) bool { return err == nil }},
		{"cancel", func(_ *testing.T, _ *env, cancel context.CancelFunc) { cancel() },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"drain", func(_ *testing.T, e *env, _ context.CancelFunc) { e.server.Drain() },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "503") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			e.ts.Client().CloseIdleConnections()
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := e.client.WaitForRelease(ctx, e.sched.Next(e.clock.Now()))
				done <- err
			}()
			waitSubscribers(t, e.server.Subscribers, 1)
			tc.end(t, e, cancel)
			if err := <-done; !tc.ok(err) {
				t.Fatalf("WaitForRelease ended by %s: %v", tc.name, err)
			}
			waitSubscribers(t, e.server.hub.count, 0)
			e.ts.Client().CloseIdleConnections()
			waitGoroutines(t, before, "a wait ended by "+tc.name)
		})
	}
}

func TestWaitForReleaseSendsOnlyLongPolls(t *testing.T) {
	// A wait for a label two epochs ahead costs the server one held
	// request per hold and nothing else: no /v1/update polling, no
	// /v1/stream, and exactly one verification — the earlier epoch's
	// publish does not wake it.
	e := newEnv(t)
	var mu sync.Mutex
	paths := map[string]int{}
	origin := e.server.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths[r.URL.Path]++
		mu.Unlock()
		origin.ServeHTTP(w, r)
	}))
	defer ts.Close()
	reg := obs.NewRegistry()
	const perAttempt = 300 * time.Millisecond
	client := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()), WithClientMetrics(reg),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, PerAttempt: perAttempt}))
	hold := client.pollHold()
	target := e.sched.Label(e.clock.Now().Add(2 * time.Minute))

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		u, err := client.WaitForRelease(context.Background(), target)
		if err == nil && u.Label != target {
			err = errors.New("wrong label")
		}
		done <- err
	}()
	for range 2 {
		time.Sleep(500 * time.Millisecond)
		e.clock.Advance(time.Minute)
		if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	waits := paths["/v1/wait/"+target]
	if len(paths) != 1 || waits == 0 {
		t.Fatalf("requests by path %v, want only /v1/wait/%s", paths, target)
	}
	if limit := 1 + int(elapsed/hold); waits > limit {
		t.Fatalf("%d long-polls in %v with a %v hold, want at most %d", waits, elapsed, hold, limit)
	}
	if n := reg.Histogram("client.verify_ns").Count(); n != 1 {
		t.Fatalf("client.verify_ns count %d, want 1", n)
	}
}
