package timeserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"timedrelease/internal/faulthttp"
	"timedrelease/internal/obs"
)

// fastRetry is DefaultRetry compressed for tests: same shape, no real
// sleeping.
var fastRetry = RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   time.Millisecond,
	MaxDelay:    4 * time.Millisecond,
	PerAttempt:  5 * time.Second,
}

// faultyEnv is newEnv with a fault-injecting transport between the
// client and the test server, plus an instrumented metric registry.
func faultyEnv(t *testing.T, policy RetryPolicy, rules ...*faulthttp.Rule) (*env, *faulthttp.Transport, *obs.Registry) {
	t.Helper()
	e := newEnv(t)
	ft := faulthttp.New(e.ts.Client().Transport, rules...)
	reg := obs.NewRegistry()
	e.client = NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(policy),
		WithClientMetrics(reg))
	return e, ft, reg
}

func TestRetryRidesOutTransientErrors(t *testing.T) {
	// The first two attempts die with a connection error; the third
	// succeeds. The client should deliver the verified update without
	// surfacing any of it, and count exactly two retries.
	e, ft, reg := faultyEnv(t, fastRetry,
		&faulthttp.Rule{PathContains: "/v1/update/", From: 1, To: 2, Err: syscall.ECONNRESET})
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
	if got := ft.Requests(); got != 3 {
		t.Fatalf("requests = %d, want 3 (2 failures + 1 success)", got)
	}
	if got := reg.Counter("client.retries").Load(); got != 2 {
		t.Fatalf("client.retries = %d, want 2", got)
	}
}

func TestRetryRidesOutTruncatedBody(t *testing.T) {
	// A response cut mid-body is a transport failure, not a definitive
	// answer: the client must retry, and must never surface the partial
	// bytes as a decode error.
	e, ft, _ := faultyEnv(t, fastRetry,
		&faulthttp.Rule{PathContains: "/v1/update/", From: 1, To: 1, TruncateTo: 3})
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())
	if _, err := e.client.Update(context.Background(), label); err != nil {
		t.Fatalf("Update after truncated body: %v", err)
	}
	if got := ft.Requests(); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
}

func TestRetryRidesOutTransientStatus(t *testing.T) {
	// 503 from a restarting server (or its load balancer) is transient;
	// the retry must get the real answer.
	e, ft, _ := faultyEnv(t, fastRetry,
		&faulthttp.Rule{PathContains: "/v1/update/", From: 1, To: 1, Status: 503})
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())
	if _, err := e.client.Update(context.Background(), label); err != nil {
		t.Fatalf("Update after 503: %v", err)
	}
	if got := ft.Requests(); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
}

func TestNoRetryOnDefinitiveAnswer(t *testing.T) {
	// 404 means "not yet published" — a correct answer from a correct
	// server. Retrying it would hammer the passive server for nothing,
	// so the policy must not kick in.
	e, ft, reg := faultyEnv(t, fastRetry)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	future := e.sched.Label(e.clock.Now().Add(time.Hour))
	_, err := e.client.Update(context.Background(), future)
	if !errors.Is(err, ErrNotYetPublished) {
		t.Fatalf("err = %v, want ErrNotYetPublished", err)
	}
	if got := ft.Requests(); got != 1 {
		t.Fatalf("requests = %d, want 1 (definitive answers are never retried)", got)
	}
	if got := reg.Counter("client.retries").Load(); got != 0 {
		t.Fatalf("client.retries = %d, want 0", got)
	}
}

func TestOversizedBodyIsAnErrorNotACutAnswer(t *testing.T) {
	// /v1/labels answers one byte more than the 1 MiB cap. Cutting the
	// body at the cap would hand back a list ending in a partial label
	// (which a relay then asks its upstream for); it must be an error
	// naming the path, and not be retried — the server would send the
	// same body again.
	const limit = 1 << 20
	e := newEnv(t)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		label := e.sched.Label(e.clock.Now()) + "\n"
		body := strings.Repeat(label, limit/len(label)+1)[:limit+1]
		w.Write([]byte(body))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, e.set, e.key.Pub, WithHTTPClient(ts.Client()), WithRetry(fastRetry))
	labels, err := c.Labels(context.Background())
	if err == nil {
		t.Fatalf("Labels returned %d labels from an oversized body, want an error", len(labels))
	}
	if !strings.Contains(err.Error(), "/v1/labels") {
		t.Fatalf("err = %v, want it to name /v1/labels", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("requests = %d, want 1 (an oversized body is a definitive answer)", n)
	}
}

func TestRetryExhaustionNamesTheAttempts(t *testing.T) {
	e, ft, reg := faultyEnv(t, fastRetry,
		&faulthttp.Rule{PathContains: "/v1/update/", Err: syscall.ECONNREFUSED})
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := e.sched.Label(e.clock.Now())
	_, err := e.client.Update(context.Background(), label)
	if err == nil {
		t.Fatal("Update succeeded through a dead transport")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("err = %v, want to unwrap to ECONNREFUSED", err)
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want attempt count in message", err)
	}
	if got := ft.Requests(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := reg.Counter("client.retries").Load(); got != 2 {
		t.Fatalf("client.retries = %d, want 2", got)
	}
}

func TestRetryRespectsContextDuringBackoff(t *testing.T) {
	// Huge backoff, dead transport, short caller deadline: the call must
	// return when the context does, not after the backoff schedule.
	slow := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour, MaxDelay: time.Hour}
	e, _, _ := faultyEnv(t, slow,
		&faulthttp.Rule{PathContains: "/v1/update/", Err: syscall.ECONNREFUSED})
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.client.Update(ctx, e.sched.Label(e.clock.Now()))
	if err == nil {
		t.Fatal("Update succeeded through a dead transport")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Update blocked %v in backoff after the context expired", elapsed)
	}
}

func TestCatchUpDegradedReturnsVerifiedPrefix(t *testing.T) {
	// Three published labels, the middle one unreachable, plus a label
	// that does not exist yet. CatchUp must hand back the two verified
	// updates it could get and a PartialError naming exactly the rest.
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	labels, err := e.client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) < 3 {
		t.Fatalf("want ≥3 published labels, got %v", labels)
	}
	unreachable := labels[1]
	future := e.sched.Label(e.clock.Now().Add(time.Hour))

	// A pre-range server (404 on /v1/catchup) pins the per-label path:
	// this test is about per-label degradation, which the aggregate
	// range mode would route around (a range response does not care
	// that one update's endpoint is unreachable).
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{PathContains: "/v1/catchup", Status: http.StatusNotFound},
		&faulthttp.Rule{PathContains: "/v1/update/" + unreachable, Err: syscall.ECONNRESET})
	reg := obs.NewRegistry()
	client := NewClient(e.ts.URL, e.set, e.key.Pub,
		WithHTTPClient(ft.Client()),
		WithRetry(NoRetry),
		WithClientMetrics(reg))

	ask := append(append([]string{}, labels...), future)
	got, err := client.CatchUp(context.Background(), ask)

	var partial *PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(got) != len(labels)-1 {
		t.Fatalf("got %d verified updates, want %d", len(got), len(labels)-1)
	}
	for _, u := range got {
		if u.Label == unreachable || u.Label == future {
			t.Fatalf("degraded CatchUp returned a missing label %q", u.Label)
		}
		if !e.sc.VerifyUpdate(e.key.Pub, u) {
			t.Fatalf("degraded CatchUp returned unverified update %q", u.Label)
		}
	}
	want := []string{unreachable, future}
	if len(partial.Missing) != 2 || partial.Missing[0] != want[0] || partial.Missing[1] != want[1] {
		t.Fatalf("Missing = %v, want %v", partial.Missing, want)
	}
	if !errors.Is(partial.Causes[future], ErrNotYetPublished) {
		t.Fatalf("Causes[%s] = %v, want ErrNotYetPublished", future, partial.Causes[future])
	}
	if !errors.Is(partial.Causes[unreachable], syscall.ECONNRESET) {
		t.Fatalf("Causes[%s] = %v, want ECONNRESET", unreachable, partial.Causes[unreachable])
	}
	// errors.Is must see through the aggregate to each cause.
	if !errors.Is(err, ErrNotYetPublished) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("errors.Is does not see through PartialError: %v", err)
	}
	if got := reg.Counter("client.catchup_degraded").Load(); got != 1 {
		t.Fatalf("client.catchup_degraded = %d, want 1", got)
	}

	// The degraded result is still cached: once the fault clears, a
	// second CatchUp only needs the two missing labels.
	ft2 := faulthttp.New(e.ts.Client().Transport)
	client2 := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(ft2.Client()))
	// (fresh client: simpler than mutating the fault rules mid-flight)
	all, err := client2.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatalf("CatchUp after fault cleared: %v", err)
	}
	if len(all) != len(labels) {
		t.Fatalf("recovered CatchUp returned %d updates, want %d", len(all), len(labels))
	}
}

func TestCatchUpIntegrityFailureAbortsWholesale(t *testing.T) {
	// Degraded mode is about availability only. A server whose update
	// fails the pinned-key check must abort the whole call — returning
	// the other labels would invite "accept the subset, miss the
	// alarm".
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	labels, err := e.client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// A client pinned to the WRONG key sees every update as forged.
	impostor, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(e.ts.URL, e.set, impostor.Pub, WithHTTPClient(e.ts.Client()))
	got, err := client.CatchUp(context.Background(), labels)
	if !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("err = %v, want ErrBadUpdate", err)
	}
	var partial *PartialError
	if errors.As(err, &partial) {
		t.Fatal("integrity failure must not be reported as a PartialError")
	}
	if len(got) != 0 {
		t.Fatalf("integrity failure returned %d updates, want 0", len(got))
	}
}
