package timeserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
)

// waitSubscribers polls until the server's hub has n subscribers parked
// (subscription happens inside handler goroutines the test can't join).
func waitSubscribers(t *testing.T, count func() int, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for count() != n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d, want %d", count(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitGoroutines polls until at most n goroutines are left — every
// goroutine the test started on top of n has exited (the pattern of
// TestCatchUpRangeOnePassContract) — and fails with a dump otherwise.
func waitGoroutines(t *testing.T, n int, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after %s, %d before it:\n%s",
				runtime.NumGoroutine(), after, n, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestStreamDeliversLivePublishes(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	got := make(chan core.KeyUpdate, 4)
	errCh := make(chan error, 1)
	go func() {
		_, err := e.client.StreamUpdates(ctx, "", func(u core.KeyUpdate) error {
			got <- u
			return errStopStream
		})
		errCh <- err
	}()
	waitSubscribers(t, e.server.Subscribers, 1)

	label := e.sched.Label(e.clock.Now())
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-got:
		if u.Label != label || !e.sc.VerifyUpdate(e.key.Pub, u) {
			t.Fatalf("streamed update invalid: %+v", u)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("published update never reached the stream")
	}
	if err := <-errCh; err != nil {
		t.Fatalf("StreamUpdates: %v", err)
	}
}

func TestStreamReplaysArchiveFrom(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(3 * time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	labels, err := e.client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 4 {
		t.Fatalf("published %d labels, want 4", len(labels))
	}

	// Replay from the second label: expect exactly labels[1:], in order.
	var seen []string
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = e.client.StreamUpdates(ctx, labels[1], func(u core.KeyUpdate) error {
		seen = append(seen, u.Label)
		if len(seen) == 3 {
			return errStopStream
		}
		return nil
	})
	if err != nil {
		t.Fatalf("StreamUpdates: %v", err)
	}
	for i, l := range labels[1:] {
		if seen[i] != l {
			t.Fatalf("replay order: got %v, want %v", seen, labels[1:])
		}
	}
}

// TestStreamOrdersSubSecondLabelsBySchedule is the regression pin for a
// silent half-loss bug: RFC3339 labels with fractional seconds do not
// sort chronologically as strings ("…T12:00:00.5Z" > "…T12:00:01Z"
// lexicographically, since '.' < 'Z' makes the longer label smaller at
// the tiebreak), so a monotone filter comparing label STRINGS drops
// every sub-second epoch that follows a whole-second one. The stream
// must order by schedule index and deliver every epoch.
func TestStreamOrdersSubSecondLabelsBySchedule(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(500 * time.Millisecond)
	clock := &fakeClock{t: time.Date(2026, 7, 5, 12, 0, 0, 250e6, time.UTC)}
	srv := NewServer(set, key, sched, WithClock(clock.Now))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()))

	if _, err := srv.PublishUpTo(clock.Now()); err != nil {
		t.Fatal(err)
	}
	first := sched.Label(clock.Now())

	want := []string{first}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var seen []string
	done := make(chan error, 1)
	go func() {
		_, serr := client.StreamUpdates(ctx, first, func(u core.KeyUpdate) error {
			seen = append(seen, u.Label)
			if len(seen) == 6 {
				return errStopStream
			}
			return nil
		})
		done <- serr
	}()
	waitSubscribers(t, srv.Subscribers, 1)

	// Cross several whole-second boundaries half an epoch at a time; the
	// labels alternate between ".5Z" and whole-second forms.
	for i := 0; i < 5; i++ {
		clock.Advance(500 * time.Millisecond)
		if _, err := srv.PublishUpTo(clock.Now()); err != nil {
			t.Fatal(err)
		}
		want = append(want, sched.Label(clock.Now()))
	}
	if err := <-done; err != nil {
		t.Fatalf("StreamUpdates: %v", err)
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("stream dropped or reordered sub-second epochs:\n got %v\nwant %v", seen, want)
	}
}

func TestStreamIsMonotoneAcrossReplayLiveOverlap(t *testing.T) {
	// An update published between the replay scan and going live is both
	// replayed (if archived in time) and broadcast; the stream must
	// deliver every label exactly once, in order. Exercised by streaming
	// from the start while publishing concurrently.
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	first := e.sched.Label(e.clock.Now())

	const extra = 5
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var seen []string
	done := make(chan error, 1)
	go func() {
		_, err := e.client.StreamUpdates(ctx, first, func(u core.KeyUpdate) error {
			seen = append(seen, u.Label)
			if len(seen) == 1+extra {
				return errStopStream
			}
			return nil
		})
		done <- err
	}()
	for i := 0; i < extra; i++ {
		e.clock.Advance(time.Minute)
		if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("StreamUpdates: %v", err)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("stream not strictly monotone: %v", seen)
		}
	}
	if len(seen) != 1+extra {
		t.Fatalf("delivered %d labels, want %d", len(seen), 1+extra)
	}
}

func TestPublishIsOneEncodeOnePassRegardlessOfSubscribers(t *testing.T) {
	// The tentpole contract: publish cost does not scale with parked
	// connections. With S streams and W long-poll waiters attached, one
	// publish performs exactly ONE wire encode and ONE registry pass.
	e := newEnv(t)
	const streams, waiters = 7, 5
	label := e.sched.Label(e.clock.Now())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.client.StreamUpdates(ctx, "", func(core.KeyUpdate) error { return errStopStream })
		}()
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(e.ts.Client()))
			c.WaitForReleaseLongPoll(ctx, label)
		}()
	}
	waitSubscribers(t, e.server.Subscribers, streams+waiters)

	encodes, passes := e.server.hub.encodes.Load(), e.server.hub.passes.Load()
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	if d := e.server.hub.encodes.Load() - encodes; d != 1 {
		t.Fatalf("publish with %d subscribers did %d encodes, want 1", streams+waiters, d)
	}
	if d := e.server.hub.passes.Load() - passes; d != 1 {
		t.Fatalf("publish with %d subscribers did %d registry passes, want 1", streams+waiters, d)
	}
	if d := e.server.hub.delivered.Load(); d != streams+waiters {
		t.Fatalf("delivered %d messages, want %d", d, streams+waiters)
	}
	wg.Wait()
}

func TestStreamShedsSlowSubscriberAndTellsIt(t *testing.T) {
	// A consumer that stops reading must be dropped — with a terminal
	// ": dropped" comment — rather than allowed to bloat its queue or
	// slow the publish path.
	old := streamQueueCap
	streamQueueCap = 1
	t.Cleanup(func() { streamQueueCap = old })
	e := newEnv(t)

	conn, err := net.Dial("tcp", strings.TrimPrefix(e.ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	line, err := body.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": ready") {
		t.Fatalf("handshake: %q, %v", line, err)
	}

	// Publish synthetic pre-encoded updates through the hub without
	// reading the stream. The handler drains its queue into the socket
	// until the kernel buffers fill and it blocks; the queue (cap 1)
	// then overflows and the hub sheds the subscriber.
	payload := e.server.codec.MarshalKeyUpdate(e.sc.IssueUpdate(e.key, e.sched.Label(e.clock.Now())))
	for i := 0; e.server.hub.sheds.Load() == 0; i++ {
		if i >= 1_000_000 {
			t.Fatal("hub never shed the non-reading subscriber")
		}
		e.server.hub.publish(int64(i), fmt.Sprintf("z%07d", i), payload)
	}

	// Now read everything: the stream must end with the dropped comment.
	rest, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("reading shed stream: %v", err)
	}
	if !strings.Contains(string(rest), ": dropped:") {
		t.Fatalf("shed stream did not carry a dropped comment (got %d bytes)", len(rest))
	}
}

func TestDrainClosesStreamsWithTerminalComment(t *testing.T) {
	// The streaming counterpart of the long-poll drain test: Drain must
	// end every in-flight /v1/stream connection promptly and deliberately
	// (terminal comment + EOF), not leave it parked past shutdown.
	e := newEnv(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(e.ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	if line, err := body.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": ready") {
		t.Fatalf("handshake: %q, %v", line, err)
	}

	start := time.Now()
	e.server.Drain()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rest, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("reading drained stream: %v", err)
	}
	if !strings.Contains(string(rest), ": drain:") {
		t.Fatalf("drained stream did not carry a drain comment: %q", rest)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v to close the stream", elapsed)
	}

	// And new stream attempts are refused while draining.
	req, _ := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/stream", nil)
	resp2, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while draining = %d, want 503", resp2.StatusCode)
	}
}

func TestWaitForDeliversOverStream(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	label := e.sched.Label(e.clock.Now())

	type res struct {
		u   core.KeyUpdate
		err error
	}
	got := make(chan res, 1)
	go func() {
		u, err := e.client.WaitFor(ctx, label)
		got <- res{u, err}
	}()
	waitSubscribers(t, e.server.Subscribers, 1)
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("WaitFor: %v", r.err)
	}
	if r.u.Label != label || !e.sc.VerifyUpdate(e.key.Pub, r.u) {
		t.Fatal("WaitFor returned an invalid update")
	}
}

func TestWaitForFallsBackToLongPollOn404(t *testing.T) {
	// A pre-stream server answers 404 for /v1/stream; WaitFor must fall
	// back to the long-poll endpoint and still deliver.
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{PathContains: "/v1/stream", Status: http.StatusNotFound})
	client := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(ft.Client()))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	label := e.sched.Label(e.clock.Now())
	got := make(chan error, 1)
	go func() {
		u, err := client.WaitFor(ctx, label)
		if err == nil && u.Label != label {
			err = errors.New("wrong label")
		}
		got <- err
	}()
	waitSubscribers(t, e.server.Subscribers, 1) // parked via /v1/wait
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("WaitFor with 404 stream: %v", err)
	}
}

func TestWaitForLongPollBacksOffOnEarly404(t *testing.T) {
	// A server (or proxy) that 404s every path sends WaitFor to the
	// long-poll fallback, whose 404s then come back at once instead of
	// after the wait timeout. The fallback must back off under the retry
	// policy, not re-issue as fast as the network answers.
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
	if _, err := client.WaitFor(ctx, e.sched.Label(e.clock.Now())); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitFor against an all-404 server: %v, want the context's deadline", err)
	}
	if n := requests.Load(); n > 10 {
		t.Fatalf("%d requests in 300 ms, want at most 10", n)
	}
}

func TestWaitForReconnectsAfterMidStreamCut(t *testing.T) {
	// The first stream connection is cut mid-body (truncated before any
	// event); WaitFor must reconnect under the retry policy and succeed
	// on the second connection.
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{PathContains: "/v1/stream", From: 1, To: 1, TruncateTo: 3})
	client := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	label := e.sched.Label(e.clock.Now())
	got := make(chan error, 1)
	go func() {
		_, err := client.WaitFor(ctx, label)
		got <- err
	}()
	waitSubscribers(t, e.server.Subscribers, 1) // the SECOND (healthy) stream
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("WaitFor after mid-stream cut: %v", err)
	}
}

func TestWaitForCatchesUpAcrossDisconnect(t *testing.T) {
	// An update published while the client is disconnected must be caught
	// up via a direct fetch between stream attempts, never missed: here
	// the stream endpoint is permanently broken, so only the catch-up
	// path can deliver.
	e := newEnv(t)
	label := e.sched.Label(e.clock.Now())
	if err := e.server.PublishLabel(label); err != nil {
		t.Fatal(err)
	}
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{PathContains: "/v1/stream", TruncateTo: 1})
	client := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	u, err := client.WaitFor(ctx, label)
	if err != nil {
		t.Fatalf("WaitFor with broken stream: %v", err)
	}
	if u.Label != label || !e.sc.VerifyUpdate(e.key.Pub, u) {
		t.Fatal("caught-up update invalid")
	}
}

func TestWaitForGivesUpWhenServerUnreachable(t *testing.T) {
	// When the server is down entirely, WaitFor must give up after
	// MaxAttempts unreachable cycles instead of spinning forever.
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{Err: errors.New("connection refused")})
	client := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.WaitFor(ctx, e.sched.Label(e.clock.Now())); err == nil {
		t.Fatal("WaitFor succeeded against an unreachable server")
	}
}

func TestStreamRejectsInjectedUpdate(t *testing.T) {
	// Self-authentication end to end: an update from a server whose key
	// does not match the client's pinned key must abort the stream with
	// ErrBadUpdate, not be delivered.
	e := newEnv(t)
	wrong, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(e.ts.URL, e.set, wrong.Pub, WithHTTPClient(e.ts.Client()))
	if err := e.server.PublishLabel(e.sched.Label(e.clock.Now())); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = client.StreamUpdates(ctx, e.sched.Label(e.clock.Now()), func(core.KeyUpdate) error { return nil })
	if !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("stream with wrong pinned key: err=%v, want ErrBadUpdate", err)
	}
}

func TestHubChurnDeliversEveryUpdateExactlyOnce(t *testing.T) {
	// Short-lived streams and /v1/wait parkers subscribe and leave while
	// updates are published. Every stream that stays connected gets
	// every update exactly once and in order, the registry empties when
	// everyone has left, and both hub gauges settle at exactly 0 — no
	// publish pass can enqueue to a subscriber that already left. Run
	// under -race by `make ci`.
	e := newEnv(t)
	reg := obs.NewRegistry()
	srv := NewServer(e.set, e.key, e.sched, WithClock(e.clock.Now), WithMetrics(reg))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const survivors, updates, churners = 4, 12, 6
	seen := make([][]string, survivors)
	var streams sync.WaitGroup
	for i := range survivors {
		streams.Add(1)
		go func() {
			defer streams.Done()
			_, err := client.StreamUpdates(ctx, "", func(u core.KeyUpdate) error {
				seen[i] = append(seen[i], u.Label)
				if len(seen[i]) == updates {
					return errStopStream
				}
				return nil
			})
			if err != nil {
				t.Errorf("surviving stream %d: %v", i, err)
			}
		}()
	}
	waitSubscribers(t, srv.Subscribers, survivors)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	never := e.sched.Label(e.clock.Now().Add(24 * time.Hour))
	for i := range churners {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				cctx, ccancel := context.WithTimeout(ctx, time.Duration(1+n%5)*time.Millisecond)
				switch {
				case i%2 == 0:
					client.StreamUpdates(cctx, "", func(core.KeyUpdate) error { return errStopStream })
				case n%2 == 0:
					client.WaitForReleaseLongPoll(cctx, never)
				default: // the next label to be published
					client.WaitForReleaseLongPoll(cctx, e.sched.Label(e.clock.Now().Add(time.Minute)))
				}
				ccancel()
			}
		}()
	}

	var want []string
	for range updates {
		time.Sleep(5 * time.Millisecond)
		e.clock.Advance(time.Minute)
		if _, err := srv.PublishUpTo(e.clock.Now()); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.sched.Label(e.clock.Now()))
	}
	streams.Wait()
	close(stop)
	churn.Wait()
	for i, got := range seen {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("surviving stream %d saw\n %v\nwant\n %v", i, got, want)
		}
	}

	waitSubscribers(t, srv.Subscribers, 0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g := reg.Snapshot().Gauges
		if g["timeserver.subscribers"] == 0 && g["timeserver.stream_queue_depth"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub gauges at rest: subscribers %d, stream_queue_depth %d; want 0 and 0",
				g["timeserver.subscribers"], g["timeserver.stream_queue_depth"])
		}
	}
}

func TestServerLeaksNoGoroutinesAfterDrain(t *testing.T) {
	// Streams and long-polls parked on an origin, one publish, then
	// Drain: every handler and client goroutine they started exits.
	e := newEnv(t)
	e.ts.Client().CloseIdleConnections()
	before := runtime.NumGoroutine()
	parkAndDrain(t, e, e.client, e.server.Subscribers, e.server.Drain)
	e.ts.Client().CloseIdleConnections()
	waitGoroutines(t, before, "streams, long-polls and Drain")
}

// parkAndDrain parks three streams and three long-polls (on a label
// that is never published) through c, waits until count sees all six,
// publishes the current epoch on e's origin, drains, and returns once
// every client call has returned and the hub is empty.
func parkAndDrain(t *testing.T, e *env, c *Client, count func() int, drain func()) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	never := e.sched.Label(e.clock.Now().Add(time.Hour))
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.StreamUpdates(ctx, "", func(core.KeyUpdate) error { return nil })
		}()
		go func() {
			defer wg.Done()
			c.WaitForReleaseLongPoll(ctx, never)
		}()
	}
	waitSubscribers(t, count, 6)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Error(err)
	}
	drain()
	wg.Wait()
	waitSubscribers(t, count, 0)
}
