package timeserver

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/faulthttp"
	"timedrelease/internal/obs"
	"timedrelease/internal/parallel"
	"timedrelease/internal/wire"
)

// publishRun publishes several epochs and returns the labels.
func publishRun(t *testing.T, e *env, epochs int) []string {
	t.Helper()
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Duration(epochs) * time.Minute)
	if _, err := e.server.PublishUpTo(e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	labels, err := e.client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) < 4 {
		t.Fatalf("need ≥4 labels, got %d", len(labels))
	}
	return labels
}

// forgeRange rewrites an honest /v1/catchup response so that the update
// for one label carries a point signed by a different key, keeping the
// response SELF-consistent: the claimed aggregate is the sum of the
// delivered (tampered) points and the Merkle root matches the delivered
// payloads. Only the pinned-key pairing check can catch it.
func forgeRange(t *testing.T, e *env, body []byte, forged core.KeyUpdate) []byte {
	t.Helper()
	resp, err := e.server.codec.UnmarshalCatchUpResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	agg := curve.Infinity()
	leaves := make([][32]byte, len(resp.Updates))
	for i := range resp.Updates {
		if resp.Updates[i].Label == forged.Label {
			resp.Updates[i] = forged
		}
		agg = e.set.B.Add(backend.G2, agg, resp.Updates[i].Point)
		leaves[i] = archive.LeafHash(e.server.codec.MarshalKeyUpdate(resp.Updates[i]))
	}
	resp.Aggregate = agg
	resp.Root = archive.MerkleRoot(leaves)
	return e.server.codec.MarshalCatchUpResponse(resp)
}

func TestCatchUpRangeForgeryFallsBackToBatchPath(t *testing.T) {
	// The range response carries one forged update (self-consistent
	// aggregate and commitment, wrong signing key). The admission check
	// must reject the page wholesale and the client must recover through
	// the authoritative per-label batch path — which here is honest, so
	// the catch-up still succeeds, with the fallback counted.
	e := newEnv(t)
	labels := publishRun(t, e, 7)
	bad := labels[len(labels)/2]
	impostor, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := e.sc.IssueUpdate(impostor, bad)

	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/catchup" {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(forgeRange(t, e, rec.Body.Bytes(), forged))
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("got %d updates for %d labels", len(ups), len(labels))
	}
	for _, u := range ups {
		if !e.sc.VerifyUpdate(e.key.Pub, u) {
			t.Fatalf("update %s invalid after fallback", u.Label)
		}
	}
	s := reg.Snapshot()
	if s.Counters["client.catchup_range_pages"] != 0 ||
		s.Counters["client.catchup_fallback"] != 1 ||
		s.Counters["client.catchup_batches"] != 1 {
		t.Fatalf("counters = pages %d fallback %d batches %d, want 0/1/1",
			s.Counters["client.catchup_range_pages"],
			s.Counters["client.catchup_fallback"],
			s.Counters["client.catchup_batches"])
	}
}

func TestCatchUpRangeForgeryRejectedWholesaleWhenServerLies(t *testing.T) {
	// Differential acceptance test: a forged update INSIDE the range,
	// served consistently on the per-label endpoint too (a lying
	// server, not a flaky proxy). The range path detects it, the
	// fallback batch path detects it, and the whole catch-up is rejected
	// with nothing cached.
	e := newEnv(t)
	labels := publishRun(t, e, 7)
	bad := labels[len(labels)/2]
	impostor, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := e.sc.IssueUpdate(impostor, bad)
	forgedBody := e.server.codec.MarshalKeyUpdate(forged)

	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/catchup":
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, r)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(forgeRange(t, e, rec.Body.Bytes(), forged))
		case "/v1/update/" + bad:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(forgedBody)
		default:
			real.ServeHTTP(w, r)
		}
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	got, err := c.CatchUp(context.Background(), labels)
	if !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("err = %v, want ErrBadUpdate", err)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Fatalf("error %q does not name the forged label %q", err, bad)
	}
	if len(got) != 0 {
		t.Fatalf("rejected catch-up returned %d updates, want 0", len(got))
	}
	if n := c.CachedLen(); n != 0 {
		t.Fatalf("rejected catch-up left %d cached updates", n)
	}
	// Two fallbacks recorded: the range rejection, then the batch
	// equation localising the offender.
	if got := reg.Snapshot().Counters["client.catchup_fallback"]; got != 2 {
		t.Fatalf("catchup_fallback = %d, want 2", got)
	}
}

func TestCatchUpRangeExcludesCachedPrefix(t *testing.T) {
	// Regression for the re-request bug: labels already in the verified
	// cache must neither be fetched again nor widen the range request.
	e := newEnv(t)
	labels := publishRun(t, e, 9)

	var mu sync.Mutex
	var froms []string
	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/catchup" {
			mu.Lock()
			froms = append(froms, r.URL.Query().Get("from"))
			mu.Unlock()
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	c := NewClient(proxy.URL, e.set, e.key.Pub, WithHTTPClient(proxy.Client()))
	// Warm the cache with the oldest three labels...
	if _, err := c.CatchUp(context.Background(), labels[:3]); err != nil {
		t.Fatal(err)
	}
	// ...then catch up on everything: the range must start at the first
	// UNcached label.
	if _, err := c.CatchUp(context.Background(), labels); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(froms) != 2 {
		t.Fatalf("range requests = %v, want exactly 2", froms)
	}
	if froms[0] != labels[0] || froms[1] != labels[3] {
		t.Fatalf("from params = %v, want [%s %s]", froms, labels[0], labels[3])
	}
}

func TestCatchUpDuplicateLabelsFetchOnce(t *testing.T) {
	// The same uncached label asked twice must cost one fetch — counted
	// on the per-label path, where requests map 1:1 to labels. A
	// pre-range server (404 on /v1/catchup, answered before it reaches
	// the server's request counter) is how a client gets there.
	e := newEnv(t)
	labels := publishRun(t, e, 4)
	ft := faulthttp.New(e.ts.Client().Transport,
		&faulthttp.Rule{PathContains: "/v1/catchup", Status: http.StatusNotFound})
	c := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(ft.Client()))

	ask := append(append([]string{}, labels...), labels[0], labels[1])
	before := e.server.Served()
	ups, err := c.CatchUp(context.Background(), ask)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.server.Served() - before; got != int64(len(labels)) {
		t.Fatalf("served %d requests for %d unique labels", got, len(labels))
	}
	// Result order follows the request, each label once.
	if len(ups) != len(labels) {
		t.Fatalf("got %d updates, want %d", len(ups), len(labels))
	}
	for i, u := range ups {
		if u.Label != labels[i] {
			t.Fatalf("update %d is for %q, want %q", i, u.Label, labels[i])
		}
	}
}

func TestCatchUpOldServerFallsBackToLegacyPath(t *testing.T) {
	// A server without /v1/catchup (404) is not an error — the client
	// quietly does what it did before the range endpoint existed.
	e := newEnv(t)
	labels := publishRun(t, e, 5)

	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/catchup" {
			http.NotFound(w, r)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("got %d updates, want %d", len(ups), len(labels))
	}
	s := reg.Snapshot()
	// An absent endpoint is availability, not integrity: no fallback
	// counted, no range page admitted, one legacy batch.
	if s.Counters["client.catchup_range_pages"] != 0 ||
		s.Counters["client.catchup_fallback"] != 0 ||
		s.Counters["client.catchup_batches"] != 1 {
		t.Fatalf("counters = pages %d fallback %d batches %d, want 0/0/1",
			s.Counters["client.catchup_range_pages"],
			s.Counters["client.catchup_fallback"],
			s.Counters["client.catchup_batches"])
	}
}

func TestCatchUpRangePagesThroughTruncation(t *testing.T) {
	// Cap the server's page size via the limit parameter by rewriting the
	// query: every page but the last comes back truncated, and the client
	// must walk them all, batch-verifying each page.
	e := newEnv(t)
	labels := publishRun(t, e, 9)

	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/catchup" {
			q := r.URL.Query()
			q.Set("limit", "3")
			r.URL.RawQuery = q.Encode()
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("got %d updates, want %d", len(ups), len(labels))
	}
	for i, u := range ups {
		if u.Label != labels[i] || !e.sc.VerifyUpdate(e.key.Pub, u) {
			t.Fatalf("update %d (%s) wrong or invalid", i, u.Label)
		}
	}
	s := reg.Snapshot()
	wantPages := int64((len(labels) + 2) / 3)
	if got := s.Counters["client.catchup_range_pages"]; got != wantPages {
		t.Fatalf("catchup_range_pages = %d, want %d", got, wantPages)
	}
	if s.Counters["client.catchup_batches"] != 0 {
		t.Fatalf("paged range catch-up used the batch path %d times", s.Counters["client.catchup_batches"])
	}
}

// tamperCompensating rewrites an honest /v1/catchup response with the
// cancellation attack the aggregate equation cannot see: +Δ on one
// update, −Δ on another. The claimed aggregate still equals the sum of
// the delivered points and the Merkle root is recommitted over the
// tampered payloads, so the sum check, the pairing product over the
// aggregate AND the completeness commitment all pass — only per-update
// binding (the blinded batch admission check) stands in the way.
func tamperCompensating(t *testing.T, e *env, body []byte) []byte {
	t.Helper()
	resp, err := e.server.codec.UnmarshalCatchUpResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Updates) < 2 {
		t.Fatalf("need ≥2 updates to tamper, got %d", len(resp.Updates))
	}
	b := e.set.B
	delta := e.sc.IssueUpdate(e.key, "some-other-label").Point
	first, last := 0, len(resp.Updates)-1
	resp.Updates[first].Point = b.Add(backend.G2, resp.Updates[first].Point, delta)
	resp.Updates[last].Point = b.Add(backend.G2, resp.Updates[last].Point, b.Neg(backend.G2, delta))
	leaves := make([][32]byte, len(resp.Updates))
	for i, u := range resp.Updates {
		leaves[i] = archive.LeafHash(e.server.codec.MarshalKeyUpdate(u))
	}
	resp.Root = archive.MerkleRoot(leaves)
	return e.server.codec.MarshalCatchUpResponse(resp)
}

func TestCatchUpRangeCompensatingTamperNeverServedOrCached(t *testing.T) {
	// Regression for the cache-poisoning hole: a MITM answering the
	// range endpoint with compensating tampers passes every
	// aggregate-level check (which the client no longer even runs), so
	// without the blinded batch admission gate
	// the forged updates would be returned with err == nil AND would
	// poison the verified cache permanently. The client must reject the
	// page, recover through the honest per-label path, and neither
	// return nor cache a tampered point.
	e := newEnv(t)
	labels := publishRun(t, e, 7)

	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/catchup" {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(tamperCompensating(t, e, rec.Body.Bytes()))
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("got %d updates for %d labels", len(ups), len(labels))
	}
	for _, u := range ups {
		if !e.sc.VerifyUpdate(e.key.Pub, u) {
			t.Fatalf("CatchUp returned a tampered update for %s", u.Label)
		}
	}
	// Update() serves straight from the cache without re-verifying, so a
	// poisoned cache would keep handing out the forgery forever.
	for _, label := range labels {
		u, err := c.Update(context.Background(), label)
		if err != nil || !e.sc.VerifyUpdate(e.key.Pub, u) {
			t.Fatalf("cached update for %s is tampered (err=%v)", label, err)
		}
	}
	s := reg.Snapshot()
	if s.Counters["client.catchup_range_pages"] != 0 ||
		s.Counters["client.catchup_fallback"] != 1 ||
		s.Counters["client.catchup_batches"] != 1 {
		t.Fatalf("counters = pages %d fallback %d batches %d, want 0/1/1",
			s.Counters["client.catchup_range_pages"],
			s.Counters["client.catchup_fallback"],
			s.Counters["client.catchup_batches"])
	}
}

func TestCatchUpSparseLabelsBoundDownload(t *testing.T) {
	// Regression for the dense-range assumption: two wanted labels far
	// apart must NOT make the client download, verify and cache every
	// archived update between them. The page limit stays proportional to
	// the wanted labels, and the server's Total makes the client finish
	// the far label per-label instead of paging the whole span.
	e := newEnv(t)
	labels := publishRun(t, e, 199) // 200 epochs archived
	first, last := labels[0], labels[len(labels)-1]

	var mu sync.Mutex
	var limits []string
	updateReqs := 0
	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		switch {
		case r.URL.Path == "/v1/catchup":
			limits = append(limits, r.URL.Query().Get("limit"))
		case strings.HasPrefix(r.URL.Path, "/v1/update/"):
			updateReqs++
		}
		mu.Unlock()
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), []string{first, last})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 || ups[0].Label != first || ups[1].Label != last {
		t.Fatalf("got %d updates (%v), want exactly [%s %s]", len(ups), ups, first, last)
	}
	mu.Lock()
	defer mu.Unlock()
	wantLimit := fmt.Sprint(catchupDensityFactor*2 + catchupDensitySlack)
	if len(limits) != 1 || limits[0] != wantLimit {
		t.Fatalf("catchup limits = %v, want one request with limit %s", limits, wantLimit)
	}
	if updateReqs != 1 {
		t.Fatalf("per-label requests = %d, want 1 (just the far label)", updateReqs)
	}
}

func TestCatchUpEmptyPageClaimingTotalFallsBack(t *testing.T) {
	// A canonically-encoded response with Total > 0 but zero delivered
	// updates claims records exist yet proves nothing about them. The
	// client must treat it as inconsistent and finish per-label — not
	// report the labels unpublished on the server's bare word.
	e := newEnv(t)
	labels := publishRun(t, e, 5)

	lie := e.server.codec.MarshalCatchUpResponse(wire.CatchUpResponse{
		Total:     len(labels),
		Aggregate: curve.Infinity(),
	})
	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/catchup" {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(lie)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatalf("CatchUp: %v (an empty page claiming Total>0 must not become ErrNotYetPublished)", err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("got %d updates, want %d", len(ups), len(labels))
	}
	s := reg.Snapshot()
	if s.Counters["client.catchup_range_pages"] != 0 || s.Counters["client.catchup_fallback"] != 1 {
		t.Fatalf("counters = pages %d fallback %d, want 0/1",
			s.Counters["client.catchup_range_pages"], s.Counters["client.catchup_fallback"])
	}
}

// countingBackend counts the group operations a client's verification
// makes through its parameter set.
type countingBackend struct {
	backend.Backend
	inSubgroup, hashToG2, scalarMult, hashSum, msm atomic.Int64
}

func (c *countingBackend) calls() string {
	return fmt.Sprintf("InSubgroup=%d HashToG2=%d ScalarMult=%d HashSumG2=%d MSM=%d",
		c.inSubgroup.Load(), c.hashToG2.Load(), c.scalarMult.Load(), c.hashSum.Load(), c.msm.Load())
}

func (c *countingBackend) InSubgroup(g backend.Group, p curve.Point) bool {
	c.inSubgroup.Add(1)
	return c.Backend.InSubgroup(g, p)
}

func (c *countingBackend) HashToG2(domain string, msg []byte) curve.Point {
	c.hashToG2.Add(1)
	return c.Backend.HashToG2(domain, msg)
}

func (c *countingBackend) ScalarMult(g backend.Group, k *big.Int, p curve.Point) curve.Point {
	c.scalarMult.Add(1)
	return c.Backend.ScalarMult(g, k, p)
}

func (c *countingBackend) HashSumG2(domain string, scalars []*big.Int, msgs [][]byte) curve.Point {
	c.hashSum.Add(1)
	return c.Backend.HashSumG2(domain, scalars, msgs)
}

func (c *countingBackend) MSM(g backend.Group, scalars []*big.Int, points []curve.Point) curve.Point {
	c.msm.Add(1)
	return c.Backend.MSM(g, scalars, points)
}

func TestCatchUpRangeOnePassContract(t *testing.T) {
	// What a returning receiver pays for 48 missed epochs: one range
	// request and ONE pairing product — the blinded batch equation, which
	// hashes every label itself (inside its worker pool). Nothing is
	// verified twice.
	e := newEnv(t)
	labels := publishRun(t, e, 47)
	if len(labels) != 48 {
		t.Fatalf("published %d labels, want 48", len(labels))
	}
	reg := obs.NewRegistry()
	counted := *e.set
	cb := &countingBackend{Backend: e.set.B}
	counted.B = cb
	e.ts.Client().CloseIdleConnections()
	goroutines := runtime.NumGoroutine()
	c := NewClient(e.ts.URL, &counted, e.key.Pub, WithHTTPClient(e.ts.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil || len(ups) != len(labels) {
		t.Fatalf("CatchUp: %d updates, err %v", len(ups), err)
	}
	// The batch equation is two sums, not 48 hashes and 96 ladders: one
	// subgroup check per update, then one hash-sum (cofactor cleared
	// once) and one multi-scalar multiplication for the whole page.
	if got, want := cb.calls(), "InSubgroup=48 HashToG2=0 ScalarMult=0 HashSumG2=1 MSM=1"; got != want {
		t.Fatalf("backend calls for the page: %s, want %s", got, want)
	}
	// Every worker the page's pool passes started has exited (the HTTP
	// connection's own goroutines go with the idle connection).
	e.ts.Client().CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the catch-up, %d before it", runtime.NumGoroutine(), goroutines)
		}
	}
	s := reg.Snapshot().Counters
	if s["core.pairings"] != 2 {
		t.Fatalf("core.pairings = %d, want exactly 2 for the page", s["core.pairings"])
	}
	if s["client.catchup_range_pages"] != 1 || s["client.catchup_fallback"] != 0 || s["client.catchup_batches"] != 0 {
		t.Fatalf("counters = pages %d fallback %d batches %d, want 1/0/0",
			s["client.catchup_range_pages"], s["client.catchup_fallback"], s["client.catchup_batches"])
	}
}

func TestCatchUpRangeDoesNotConsultAggregateOrRoot(t *testing.T) {
	// The Aggregate and Root fields are reserved for removal: a page of
	// genuine updates is admitted whatever they carry, so a later server
	// can send them empty to clients from this version on.
	e := newEnv(t)
	labels := publishRun(t, e, 7)
	garbage := e.sc.IssueUpdate(e.key, "some-other-label").Point
	for name, agg := range map[string]curve.Point{"identity": curve.Infinity(), "garbage": garbage} {
		real := e.server.Handler()
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/catchup" {
				real.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, r)
			resp, err := e.server.codec.UnmarshalCatchUpResponse(rec.Body.Bytes())
			if err != nil {
				t.Error(err)
			}
			resp.Aggregate, resp.Root = agg, [32]byte{}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(e.server.codec.MarshalCatchUpResponse(resp))
		}))
		reg := obs.NewRegistry()
		c := NewClient(proxy.URL, e.set, e.key.Pub,
			WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
		ups, err := c.CatchUp(context.Background(), labels)
		proxy.Close()
		if err != nil || len(ups) != len(labels) {
			t.Fatalf("%s aggregate: %d updates, err %v", name, len(ups), err)
		}
		s := reg.Snapshot().Counters
		if s["client.catchup_range_pages"] != 1 || s["client.catchup_fallback"] != 0 || s["client.catchup_batches"] != 0 {
			t.Fatalf("%s aggregate: counters = pages %d fallback %d batches %d, want 1/0/0", name,
				s["client.catchup_range_pages"], s["client.catchup_fallback"], s["client.catchup_batches"])
		}
	}
}

func TestCatchUpRangeEnforcesRequestedLimit(t *testing.T) {
	// The client asks for limit = 4·wanted+64 so a sparse label set cannot
	// pull in the archive span between them; a server that ignores the
	// limit must not get the whole span parsed, verified and cached anyway.
	// The oversized page is refused on its header alone — no point of it
	// reaches the worker pool — and the two labels are finished per-label.
	e := newEnv(t)
	labels := publishRun(t, e, 199) // 200 epochs archived
	first, last := labels[0], labels[len(labels)-1]

	real := e.server.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/catchup" {
			q := r.URL.Query()
			q.Del("limit")
			r.URL.RawQuery = q.Encode()
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	tasks := reg.Snapshot().Gauges["parallel.tasks"]
	c := NewClient(proxy.URL, e.set, e.key.Pub,
		WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), []string{first, last})
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 || ups[0].Label != first || ups[1].Label != last {
		t.Fatalf("got %d updates (%v), want exactly [%s %s]", len(ups), ups, first, last)
	}
	if n := c.CachedLen(); n != 2 {
		t.Fatalf("client cached %d updates from a page it never asked for, want 2", n)
	}
	s := reg.Snapshot()
	if s.Counters["client.catchup_range_pages"] != 0 ||
		s.Counters["client.catchup_fallback"] != 1 ||
		s.Counters["client.catchup_batches"] != 1 {
		t.Fatalf("counters = pages %d fallback %d batches %d, want 0/1/1",
			s.Counters["client.catchup_range_pages"],
			s.Counters["client.catchup_fallback"],
			s.Counters["client.catchup_batches"])
	}
	// Only the per-label batch of two went through the pool: its subgroup
	// checks and its two sums, at most two tasks each (the sums chunk by
	// processor). Parsing the 200-update page would have added 200.
	if got := s.Gauges["parallel.tasks"] - tasks; got < 2 || got > 6 {
		t.Fatalf("%d pool tasks, want 2 to 6: the oversized page's points were parsed", got)
	}
}
