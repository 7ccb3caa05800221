package timeserver

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"timedrelease/internal/core"
)

// Long-poll limits.
const (
	defaultWaitTimeout = 25 * time.Second
	maxWaitTimeout     = 2 * time.Minute
)

// handleWait is the long-poll variant of handleUpdate: it blocks until
// the label's update is published, the requested timeout passes, or the
// client goes away. Receivers "waiting in alert" for a release (paper
// §3) get the update the instant it exists, without polling.
//
// The handler parks as a one-shot hub subscription for its label: when
// the publish happens, the hub hands every matching waiter the SAME
// already-encoded bytes in one pass, so N parked waiters cost the
// publish path nothing beyond N channel sends — no per-waiter archive
// re-read, no per-waiter re-encode, no thundering re-check herd. The
// handler still only reads published data — it cannot cause a release.
func (v *publicView) handleWait(w http.ResponseWriter, r *http.Request) {
	label := r.PathValue("label")
	timeout := defaultWaitTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			http.Error(w, "bad timeout", http.StatusBadRequest)
			return
		}
		timeout = min(d, maxWaitTimeout)
	}

	// Subscribe BEFORE checking the archive so a publish between the
	// check and the park cannot be missed.
	sub := v.hub.subscribe(label)
	defer v.hub.unsubscribe(sub)

	if u, ok := v.arch.Get(label); ok {
		// Already published: answer from the archive (the per-request
		// encode here is the uncontended path, not a publish fan-out).
		v.archHit.Inc()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(v.codec.MarshalKeyUpdate(u))
		return
	}
	// A draining server answers instead of holding the poll open, so
	// graceful shutdown is never hostage to a long-poll timeout.
	if v.draining.Load() {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case m := <-sub.ch:
		v.hub.gQueue.Add(-1)
		v.archHit.Inc()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(m.body)
	case <-v.hub.drained:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case <-r.Context().Done():
	case <-deadline.C:
		v.archMiss.Inc()
		http.Error(w, "update not published within timeout", http.StatusNotFound)
	}
}

// WaitForReleaseLongPoll blocks until the update for label is published,
// using the server's long-poll endpoint instead of client-side polling:
// one outstanding request per ~25s instead of one per poll interval, and
// delivery latency bounded by the network rather than the poll period.
// Prefer WaitFor, which rides the push stream and falls back to this.
func (c *Client) WaitForReleaseLongPoll(ctx context.Context, label string) (core.KeyUpdate, error) {
	p := c.retry
	if p.BaseDelay <= 0 {
		p = DefaultRetry
	}
	for early := 0; ; {
		start := time.Now()
		body, status, err := c.get(ctx, "/v1/wait/"+label+"?timeout="+defaultWaitTimeout.String())
		if err != nil {
			return core.KeyUpdate{}, err
		}
		switch status {
		case http.StatusOK:
			return c.verifyAndCache(label, body)
		case http.StatusNotFound:
			// Timed out server-side: re-issue at once. A 404 that came
			// back before the wait timeout means nothing parked the poll
			// (a proxy, or a server without /v1/wait): back off first, or
			// this would be a tight request loop bounded only by ctx.
			var pause time.Duration
			if time.Since(start) < defaultWaitTimeout {
				early++
				pause = p.backoff(min(early, 16))
			} else {
				early = 0
			}
			if err := sleepCtx(ctx, pause); err != nil {
				return core.KeyUpdate{}, err
			}
		default:
			return core.KeyUpdate{}, fmt.Errorf("timeserver: unexpected status %d", status)
		}
	}
}
