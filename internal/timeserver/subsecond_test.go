package timeserver

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/wire"
)

// TestSubSecondScheduleOrdersByInstant: on a 500 ms schedule the labels
// alternate between "…:21Z" and "…:21.5Z", which sort the wrong way
// round as strings ('.' < 'Z'). Everything that reads the archive in
// order — /v1/latest and Client.Latest, /v1/labels, a catch-up page
// from a mid-second label and the client's range path over it, and a
// stream replay from one — must follow the instants.
func TestSubSecondScheduleOrdersByInstant(t *testing.T) {
	set := params.MustPreset("Test160")
	key, err := core.NewScheme(set).ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(500 * time.Millisecond)
	clock := &fakeClock{t: time.Date(2026, 7, 5, 12, 0, 20, 0, time.UTC)}
	srv := NewServer(set, key, sched, WithClock(clock.Now))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var want []string // …:20Z, …:20.5Z, …, …:23.5Z
	for i := 0; i < 8; i++ {
		if _, err := srv.PublishUpTo(clock.Now()); err != nil {
			t.Fatal(err)
		}
		want = append(want, sched.Label(clock.Now()))
		clock.Advance(500 * time.Millisecond)
	}
	last, mid := want[len(want)-1], want[3] // …:23.5Z, …:21.5Z

	if u, err := client.Latest(ctx); err != nil || u.Label != last {
		t.Fatalf("Client.Latest = %q, %v; want %q", u.Label, err, last)
	}
	if labels, err := client.Labels(ctx); err != nil || fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Fatalf("/v1/labels = %v, %v\nwant %v", labels, err, want)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/catchup?from=" + url.QueryEscape(mid) + "&to=" + url.QueryEscape(last))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/catchup: status %d, %v", resp.StatusCode, err)
	}
	page, err := wire.NewCodec(set).UnmarshalCatchUpResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range page.Updates {
		got = append(got, u.Label)
	}
	if fmt.Sprint(got) != fmt.Sprint(want[3:]) || page.Total != len(want)-3 {
		t.Fatalf("catch-up page from %s: %v (total %d)\nwant %v", mid, got, page.Total, want[3:])
	}

	fresh := NewClient(ts.URL, set, key.Pub, WithHTTPClient(ts.Client()), WithClientMetrics(obs.NewRegistry()))
	ups, err := fresh.CatchUp(ctx, []string{last, want[5], mid, want[4]})
	if err != nil || len(ups) != 4 {
		t.Fatalf("CatchUp from %s: %d updates, %v", mid, len(ups), err)
	}
	if pages, falls := fresh.met.catchupPages.Load(), fresh.met.catchupFallback.Load(); pages != 1 || falls != 0 {
		t.Fatalf("CatchUp took %d range pages and %d fallbacks, want one page", pages, falls)
	}

	var seen []string
	_, err = client.StreamUpdates(ctx, mid, func(u core.KeyUpdate) error {
		if seen = append(seen, u.Label); len(seen) == len(want)-3 {
			return errStopStream
		}
		return nil
	})
	if err != nil || fmt.Sprint(seen) != fmt.Sprint(want[3:]) {
		t.Fatalf("stream replay from %s: %v, %v\nwant %v", mid, seen, err, want[3:])
	}
}
