package timeserver

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
)

// listCountingArchive counts Labels() calls: a full copy of the label
// set, which only /v1/labels has a reason to ask for.
type listCountingArchive struct {
	archive.Archive
	listed atomic.Int64
}

func (a *listCountingArchive) Labels() []string {
	a.listed.Add(1)
	return a.Archive.Labels()
}

// TestHotPathsNeverListTheArchive pins that the publish tick, /v1/latest,
// the /v1/stream replay and the relay's resume point read the archive's
// ordered index (Latest, Range) instead of copying every label to look
// at the last one or at a suffix.
func TestHotPathsNeverListTheArchive(t *testing.T) {
	set := params.MustPreset("Test160")
	key, err := core.NewScheme(set).ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(time.Minute)
	clock := &fakeClock{t: time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)}
	origin := &listCountingArchive{Archive: archive.NewMemory()}
	srv := NewServer(set, key, sched, WithClock(clock.Now), WithArchive(origin))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// PublishUpTo on an empty and on a filled archive, then Run's tick.
	for i := 0; i < 3; i++ {
		if _, err := srv.PublishUpTo(clock.Now()); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
	}
	runCtx, stopRun := context.WithCancel(ctx)
	ran := make(chan error, 1)
	go func() { ran <- srv.Run(runCtx) }()
	for srv.Published() < 4 {
		time.Sleep(time.Millisecond)
	}
	stopRun()
	<-ran
	want := sched.Label(clock.Now())
	if u, err := client.Latest(ctx); err != nil || u.Label != want {
		t.Fatalf("Latest = %q, %v; want %q", u.Label, err, want)
	}
	replayed := 0
	if _, err := client.StreamUpdates(ctx, sched.LabelAt(0), func(core.KeyUpdate) error {
		if replayed++; replayed == 4 {
			return errStopStream
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := origin.listed.Load(); n != 0 {
		t.Fatalf("PublishUpTo, Run, /v1/latest and /v1/stream listed the whole archive %d times, want 0", n)
	}

	// The relay: resume point on an empty and on a synced archive. Its
	// sync lists the UPSTREAM labels over HTTP, never its own archive.
	local := &listCountingArchive{Archive: archive.NewMemory()}
	relay := NewRelay(client, sched, RelayWithArchive(local))
	if got := relay.nextFrom(); got != sched.LabelAt(0) {
		t.Fatalf("nextFrom on an empty archive = %q, want epoch 0", got)
	}
	if n, err := relay.Sync(ctx); err != nil || n != 4 {
		t.Fatalf("relay sync ingested %d, %v; want 4", n, err)
	}
	if got := relay.nextFrom(); got != sched.Next(clock.Now()) {
		t.Fatalf("nextFrom = %q, want %q", got, sched.Next(clock.Now()))
	}
	if n := local.listed.Load(); n != 0 {
		t.Fatalf("the relay listed its own archive %d times, want 0", n)
	}
	// The wrapper does count: the sync's upstream listing was one
	// /v1/labels request against the origin.
	if n := origin.listed.Load(); n != 1 {
		t.Fatalf("origin listed %d times after one /v1/labels, want 1", n)
	}
}

// oldClientCatchUp does what a client from before the range page lost
// its pre-filter did with /v1/catchup: recompute the Merkle root over
// the delivered payloads, run the aggregate signature check, and on
// either failing finish label by label with the batch check — exactly
// its path against a server with no /v1/catchup at all.
func oldClientCatchUp(t *testing.T, e *env, base string, hc *http.Client, labels []string) (rangeAdmitted bool, ups []core.KeyUpdate) {
	t.Helper()
	get := func(path string) []byte {
		resp, err := hc.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	codec := e.server.codec
	page, err := codec.UnmarshalCatchUpResponse(get("/v1/catchup?from=" +
		url.QueryEscape(labels[0]) + "&to=" + url.QueryEscape(labels[len(labels)-1])))
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Updates) != len(labels) {
		t.Fatalf("page carries %d updates, want %d", len(page.Updates), len(labels))
	}
	leaves := make([][32]byte, len(page.Updates))
	for i, u := range page.Updates {
		leaves[i] = archive.LeafHash(codec.MarshalKeyUpdate(u))
	}
	if archive.MerkleRoot(leaves) == page.Root && e.sc.VerifyUpdateAggregate(e.key.Pub, page.Updates, page.Aggregate) {
		return true, page.Updates
	}
	for _, l := range labels {
		u, err := codec.UnmarshalKeyUpdate(get("/v1/update/" + l))
		if err != nil || u.Label != l {
			t.Fatalf("per-label fetch of %s: %q, %v", l, u.Label, err)
		}
		ups = append(ups, u)
	}
	if ok, err := e.sc.VerifyUpdateBatch(e.key.Pub, ups); !ok || err != nil {
		t.Fatalf("per-label batch did not verify (%v)", err)
	}
	return false, ups
}

// TestOldClientFallsBackPerLabel is interop direction (a): a client that
// still checks the two reserved fields rejects the page it now gets —
// identity is not a signature, zero is not the root — and its per-label
// path returns all 48 updates verified, from the origin and through a
// relay alike.
func TestOldClientFallsBackPerLabel(t *testing.T) {
	e := newEnv(t)
	labels := publishRun(t, e, 47)
	up := NewClient(e.ts.URL, e.set, e.key.Pub, WithHTTPClient(e.ts.Client()))
	relay := NewRelay(up, e.sched)
	if n, err := relay.Sync(context.Background()); err != nil || n != len(labels) {
		t.Fatalf("relay sync ingested %d, %v; want %d", n, err, len(labels))
	}
	rts := httptest.NewServer(relay.Handler())
	t.Cleanup(rts.Close)
	for name, srv := range map[string]*httptest.Server{"origin": e.ts, "relay": rts} {
		admitted, ups := oldClientCatchUp(t, e, srv.URL, srv.Client(), labels)
		if admitted {
			t.Fatalf("%s: an aggregate-checking client admitted a page with reserved fields", name)
		}
		if len(ups) != len(labels) {
			t.Fatalf("%s: per-label fallback returned %d updates, want %d", name, len(ups), len(labels))
		}
	}
}

// TestCatchUpRangeAdmitsParentShapedPage is interop direction (b): a
// page as the parent server built it — the real sum, the real root — is
// admitted by today's client on the same one pass.
func TestCatchUpRangeAdmitsParentShapedPage(t *testing.T) {
	e := newEnv(t)
	labels := publishRun(t, e, 47)
	real := e.server.Handler()
	var sawSum atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/catchup" {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		// forgeRange with a label the page does not hold replaces no
		// update: it only fills in the sum and the root.
		body := forgeRange(t, e, rec.Body.Bytes(), core.KeyUpdate{})
		if page, err := e.server.codec.UnmarshalCatchUpResponse(body); err == nil &&
			e.sc.VerifyUpdateAggregate(e.key.Pub, page.Updates, page.Aggregate) && page.Root != ([32]byte{}) {
			sawSum.Store(true)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body)
	}))
	defer proxy.Close()
	reg := obs.NewRegistry()
	c := NewClient(proxy.URL, e.set, e.key.Pub, WithHTTPClient(proxy.Client()), WithClientMetrics(reg))
	ups, err := c.CatchUp(context.Background(), labels)
	if err != nil || len(ups) != len(labels) {
		t.Fatalf("CatchUp: %d updates, err %v", len(ups), err)
	}
	if !sawSum.Load() {
		t.Fatal("the proxied page did not carry a verifying sum and a root")
	}
	s := reg.Snapshot().Counters
	if s["client.catchup_range_pages"] != 1 || s["client.catchup_fallback"] != 0 || s["core.pairings"] != 2 {
		t.Fatalf("counters = pages %d fallback %d pairings %d, want 1/0/2",
			s["client.catchup_range_pages"], s["client.catchup_fallback"], s["core.pairings"])
	}
}

// TestStreamReplayOrderOverOutOfOrderArchive fills an archive out of
// order, with one off-schedule label inside the replayed window, and
// streams from a label in the middle. The replay SELECTS by label order
// — one archive.Range from the first 19 bytes of from, its whole second
// — and EMITS by schedule index. On a schedule of whole seconds the two
// orders coincide. Below a second they do not: "…:01.25Z" sorts before
// "…:01Z", so a range starting at the label "…:01Z" itself would lose
// the three quarter-second epochs that follow it, and one starting at
// "…:01.5Z" picks up the earlier "…:01Z". The stream must carry exactly
// the on-schedule labels at or after from, oldest first, and then go
// live without a gap or a duplicate.
func TestStreamReplayOrderOverOutOfOrderArchive(t *testing.T) {
	for _, tc := range []struct {
		name        string
		granularity time.Duration
		from        int    // index into the 10 archived epochs
		offSchedule string // sorts inside the replayed window
	}{
		{"1s", time.Second, 4, "2026-07-05T12:00:06.5Z"},
		{"250ms/from whole second", 250 * time.Millisecond, 4, "2026-07-05T12:00:01.3Z"},
		{"250ms/from fraction", 250 * time.Millisecond, 6, "2026-07-05T12:00:01.6Z"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := params.MustPreset("Test160")
			sc := core.NewScheme(set)
			key, err := sc.ServerKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			sched := timefmt.MustSchedule(tc.granularity)
			start := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
			first := sched.Index(start)
			labels := make([]string, 12) // 10 archived, 2 published live
			for i := range labels {
				labels[i] = sched.LabelAt(first + int64(i))
			}
			arch := archive.NewMemory()
			for _, i := range []int{7, 2, 9, 0, 5, -1, 3, 8, 1, 6, 4} {
				label := tc.offSchedule
				if i >= 0 {
					label = labels[i]
				}
				if err := arch.Put(sc.IssueUpdate(key, label)); err != nil {
					t.Fatal(err)
				}
			}
			clock := &fakeClock{t: sched.Start(first + 9).Add(tc.granularity / 2)}
			srv := NewServer(set, key, sched, WithClock(clock.Now), WithArchive(arch))
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			client := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()))

			want := labels[tc.from:]
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var seen []string
			done := make(chan error, 1)
			go func() {
				_, err := client.StreamUpdates(ctx, labels[tc.from], func(u core.KeyUpdate) error {
					if seen = append(seen, u.Label); len(seen) == len(want) {
						return errStopStream
					}
					return nil
				})
				done <- err
			}()
			waitSubscribers(t, srv.Subscribers, 1)
			for i := 0; i < 2; i++ {
				clock.Advance(tc.granularity)
				if n, err := srv.PublishUpTo(clock.Now()); err != nil || n != 1 {
					t.Fatalf("live publish %d: %d updates, %v", i, n, err)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("StreamUpdates: %v", err)
			}
			if fmt.Sprint(seen) != fmt.Sprint(want) {
				t.Fatalf("stream from %s:\n got %v\nwant %v", labels[tc.from], seen, want)
			}
		})
	}
}
