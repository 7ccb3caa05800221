package timeserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"timedrelease/internal/core"
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
			u, err := e.client.WaitForReleaseLongPoll(ctx, target)
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
		u, err := c.WaitForReleaseLongPoll(ctx, target)
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
			t.Fatalf("WaitForReleaseLongPoll under a 300 ms per-attempt bound: %v", r.err)
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
	u, err := e.client.WaitForReleaseLongPoll(context.Background(), label)
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
	if _, err := c.WaitForReleaseLongPoll(context.Background(), label); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("err=%v, want ErrBadUpdate", err)
	}
}
