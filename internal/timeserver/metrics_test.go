package timeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
)

// TestMetricsEndToEnd drives an instrumented server + client through
// publish, fetch, cache hit, 404 and catch-up, and asserts the
// advertised metric names (docs/OBSERVABILITY.md) move as documented.
func TestMetricsEndToEnd(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(time.Minute)
	clock := &fakeClock{t: time.Date(2026, 8, 6, 12, 0, 30, 0, time.UTC)}
	var events bytes.Buffer
	sreg := obs.NewRegistry()
	srv := NewServer(set, key, sched,
		WithClock(clock.Now), WithMetrics(sreg), WithLogger(obs.NewLogger(&events)))
	ts := newTestHTTP(t, srv)
	creg := obs.NewRegistry()
	client := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()), WithClientMetrics(creg))

	if _, err := srv.PublishUpTo(clock.Now()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Minute)
	if _, err := srv.PublishUpTo(clock.Now()); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	label := sched.Label(clock.Now())
	if _, err := client.Update(ctx, label); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Update(ctx, label); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := client.Update(ctx, sched.Next(clock.Now())); err == nil { // archive miss
		t.Fatal("future label must fail")
	}
	labels, err := client.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CatchUp(ctx, labels); err != nil {
		t.Fatal(err)
	}

	s := sreg.Snapshot()
	if got := s.Counters["timeserver.published"]; got != 4 {
		t.Fatalf("timeserver.published = %d, want 4", got)
	}
	if s.Histograms["timeserver.publish_ns"].Count != 4 {
		t.Fatalf("publish_ns count = %d, want 4", s.Histograms["timeserver.publish_ns"].Count)
	}
	// update endpoint: 2 uncached client fetches (one a 404); catch-up
	// goes through the range endpoint instead.
	if got := s.Counters["timeserver.requests.update"]; got < 2 {
		t.Fatalf("timeserver.requests.update = %d, want ≥ 2", got)
	}
	if got := s.Counters["timeserver.requests.catchup"]; got != 1 {
		t.Fatalf("timeserver.requests.catchup = %d, want 1", got)
	}
	if s.Counters["timeserver.archive_hit"] < 1 || s.Counters["timeserver.archive_miss"] != 1 {
		t.Fatalf("archive hit/miss = %d/%d, want ≥1/1",
			s.Counters["timeserver.archive_hit"], s.Counters["timeserver.archive_miss"])
	}
	if s.Histograms["timeserver.request_ns.update"].Count != s.Counters["timeserver.requests.update"] {
		t.Fatal("per-endpoint histogram count must match the request counter")
	}
	if _, ok := s.Gauges["parallel.max_workers"]; !ok {
		t.Fatal("parallel pool gauges missing from server registry")
	}

	c := creg.Snapshot()
	// Hits: the repeated Update, plus the already-cached label in the
	// catch-up partition.
	if c.Counters["client.cache_hit"] != 2 {
		t.Fatalf("client.cache_hit = %d, want 2", c.Counters["client.cache_hit"])
	}
	// Misses: first fetch, 404 fetch, catch-up partition over 4 labels
	// (1 already cached → 3 misses there).
	if c.Counters["client.cache_miss"] < 4 {
		t.Fatalf("client.cache_miss = %d, want ≥ 4", c.Counters["client.cache_miss"])
	}
	// The catch-up rode the range path: one range response, one pairing
	// product, no per-label batch and no fallback.
	if c.Counters["client.catchup_range_pages"] != 1 || c.Counters["client.catchup_fallback"] != 0 {
		t.Fatalf("catchup range pages/fallback = %d/%d, want 1/0",
			c.Counters["client.catchup_range_pages"], c.Counters["client.catchup_fallback"])
	}
	if c.Counters["client.catchup_batches"] != 0 {
		t.Fatalf("catchup_batches = %d, want 0 (range path)", c.Counters["client.catchup_batches"])
	}
	if c.Histograms["client.verify_ns"].Count < 2 || c.Histograms["client.fetch_ns"].Count < 3 {
		t.Fatalf("client latency histograms undersampled: verify=%d fetch=%d",
			c.Histograms["client.verify_ns"].Count, c.Histograms["client.fetch_ns"].Count)
	}
	if c.Counters["core.pairings"] == 0 {
		t.Fatal("core.pairings did not move on the client's verifications")
	}

	// Structured events: one JSON line per publish round.
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d event lines, want 2:\n%s", len(lines), events.String())
	}
	for _, l := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("event line not JSON: %v: %q", err, l)
		}
		if obj["event"] != "publish-catchup" {
			t.Fatalf("unexpected event %v", obj["event"])
		}
	}

	// Reset supports the load harness' per-cell accounting.
	sreg.Reset()
	if sreg.Snapshot().Counters["timeserver.published"] != 0 {
		t.Fatal("reset did not clear server counters")
	}
}

// TestUninstrumentedPathsStillWork pins the nil-safety contract: a
// server and client without metrics exercise the same code paths.
func TestUninstrumentedPathsStillWork(t *testing.T) {
	e := newEnv(t)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if e.server.Metrics() != nil {
		t.Fatal("uninstrumented server must report a nil registry")
	}
	label := e.sched.Label(e.clock.Now())
	if _, err := e.client.Update(context.Background(), label); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.Update(context.Background(), label); err != nil {
		t.Fatal(err)
	}
}
