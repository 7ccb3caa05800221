package timeserver

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/wire"
)

// PartialError reports a degraded catch-up: some labels produced
// verified updates, others could not be fetched. The verified part has
// already been returned — a receiver can decrypt everything whose
// release it now holds and re-request the rest later — so this is an
// error about completeness, never about integrity (an update that
// fails verification is ErrBadUpdate, wholesale).
type PartialError struct {
	// Missing lists the labels with no verified update, in request
	// order.
	Missing []string
	// Causes maps each missing label to why it is missing (e.g.
	// ErrNotYetPublished, or the transport error that survived the
	// retry policy).
	Causes map[string]error
}

// Error summarises the damage without flooding: the count plus the
// first missing label and its cause.
func (e *PartialError) Error() string {
	if len(e.Missing) == 0 {
		return "timeserver: degraded catch-up"
	}
	first := e.Missing[0]
	return fmt.Sprintf("timeserver: degraded catch-up: %d label(s) missing (first: %s: %v)",
		len(e.Missing), first, e.Causes[first])
}

// Unwrap exposes the per-label causes so errors.Is sees through the
// partial error (e.g. errors.Is(err, ErrNotYetPublished) holds when
// any missing label is simply not released yet).
func (e *PartialError) Unwrap() []error {
	out := make([]error, 0, len(e.Causes))
	for _, err := range e.Causes {
		out = append(out, err)
	}
	return out
}

const (
	// catchupRangeMin is the smallest number of uncached labels worth a
	// range request; below it per-label fetches cost the same number of
	// round trips anyway.
	catchupRangeMin = 2
	// catchupRangeLimit is the per-request page size asked of
	// /v1/catchup (the server caps at its own maximum regardless).
	catchupRangeLimit = 65536
	// catchupBodyLimit caps one range response body: 64k updates on the
	// widest supported field stay well under this.
	catchupBodyLimit = 64 << 20
	// catchupMaxPages bounds paging through a truncated range so a
	// hostile server cannot keep a client looping.
	catchupMaxPages = 64
	// catchupDensityFactor/Slack bound how much of the archive a range
	// request may pull in beyond the labels actually wanted: each page's
	// limit is factor·wanted+slack, and paging stops (leaving the rest
	// to per-label fetches) once the server's Total shows the remaining
	// window holds more than that many records. Without the gate, two
	// sparse labels far apart would make the client download and verify
	// every archived update in between.
	catchupDensityFactor = 4
	catchupDensitySlack  = 64
)

// CatchUp fetches the updates for many labels (e.g. every epoch missed
// while offline) and verifies them with O(1) pairing work: the labels
// not already in the verified cache are requested as ONE /v1/catchup
// range and each page is checked with one pairing product, however
// large it is — the blinded batch equation (core.VerifyUpdateBatch),
// whose per-update random blinders bind every update to its own label.
// That is the paper's self-authentication of each archived update
// (§5.3.1), batched; nothing else a page carries is trusted. When the
// server predates the range endpoint, or a range response fails any
// check, CatchUp falls back to the per-label fetch + blinded batch
// verification it has always done — an update that fails it aborts the
// call with ErrBadUpdate naming the offender. All verified updates are
// cached.
//
// CatchUp degrades instead of failing wholesale: a label whose fetch
// fails (not yet published, or a transport error that survived the
// retry policy) is skipped, and the verified updates for every OTHER
// label are still returned — in request order — alongside a
// *PartialError naming the missing labels. err == nil means every
// label was returned. Integrity failures are different: any update
// that fails verification poisons nothing but aborts the call with
// ErrBadUpdate — degraded mode never trades away the pinned-key check.
// ctx cancellation also aborts wholesale.
func (c *Client) CatchUp(ctx context.Context, labels []string) ([]core.KeyUpdate, error) {
	byLabel := make(map[string]core.KeyUpdate, len(labels))

	// Partition into cached and to-fetch, deduplicating the fetch list
	// (the same uncached label twice must not cost two fetches).
	var missing []string
	requested := make(map[string]bool, len(labels))
	for _, label := range labels {
		if requested[label] {
			continue
		}
		requested[label] = true
		if u, ok := c.cached(label); ok {
			byLabel[label] = u
		} else {
			missing = append(missing, label)
		}
	}

	var partial *PartialError
	skip := func(label string, cause error) {
		if partial == nil {
			partial = &PartialError{Causes: make(map[string]error)}
		}
		partial.Missing = append(partial.Missing, label)
		partial.Causes[label] = cause
	}

	// Range fast path: one range request over [min, max] of the
	// uncached labels — cached labels never widen the range — verified
	// with one pairing product per page. A label a fully-covered range
	// does not contain is not published; that is the same availability
	// trust as a per-label 404, and costs zero extra round trips.
	if len(missing) >= catchupRangeMin {
		if got, complete := c.rangeCatchUp(ctx, missing); got != nil {
			rest := make([]string, 0, len(missing))
			for _, label := range missing {
				switch u, ok := got[label]; {
				case ok:
					byLabel[label] = u
				case complete:
					skip(label, ErrNotYetPublished)
				default:
					rest = append(rest, label) // truncated page: undetermined
				}
			}
			missing = rest
		}
	}

	// Per-label path: everything the range mode did not settle (all of
	// it, when the fast path was skipped or fell back). Fetch what we
	// can, remembering what we cannot.
	fetched := make([]core.KeyUpdate, 0, len(missing))
	for _, label := range missing {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body, status, err := c.get(ctx, "/v1/update/"+label)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, err
			}
			skip(label, err)
			continue
		case status == http.StatusNotFound:
			skip(label, ErrNotYetPublished)
			continue
		case status != http.StatusOK:
			skip(label, fmt.Errorf("timeserver: unexpected status %d", status))
			continue
		}
		u, err := c.codec.UnmarshalKeyUpdate(body)
		if err != nil {
			skip(label, err)
			continue
		}
		if u.Label != label {
			skip(label, fmt.Errorf("timeserver: server returned update for %q", u.Label))
			continue
		}
		fetched = append(fetched, u)
	}

	// Batch-verify everything fetched with one blinded pairing equation,
	// over the Miller-loop schedules precomputed for the pinned server
	// key.
	if len(fetched) > 0 {
		c.met.catchupBatches.Inc()
		start := time.Now()
		ok, err := c.sc.VerifyUpdateBatch(c.spub, fetched)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Locate the offender for a useful error.
			c.met.catchupFallback.Inc()
			for _, u := range fetched {
				if !c.sc.VerifyUpdate(c.spub, u) {
					return nil, fmt.Errorf("%w (label %s)", ErrBadUpdate, u.Label)
				}
			}
			return nil, ErrBadUpdate // all pass individually?! treat as failure
		}
		c.met.verifyNS.Since(start)
	}

	// Cache what was just verified (the cache may be disabled, so the
	// results are assembled from byLabel directly).
	for _, u := range fetched {
		c.store(u)
		byLabel[u.Label] = u
	}
	out := make([]core.KeyUpdate, 0, len(byLabel))
	seen := make(map[string]bool, len(byLabel))
	for _, label := range labels {
		if u, ok := byLabel[label]; ok && !seen[label] {
			out = append(out, u)
			seen[label] = true
		}
	}
	if partial != nil {
		c.met.catchupDegraded.Inc()
		return out, partial
	}
	return out, nil
}

// rangeCatchUp runs the range fast path over the uncached labels: it
// pages /v1/catchup windows that always start at the next label still
// wanted, and takes each page through one pass — decode (curve and
// subgroup membership of every point), the requested limit, window and
// Total consistency, then the blinded batch equation as the admission
// check. No update reaches the verified cache, or the caller, without
// passing it; the page's Aggregate and Root fields are decoded and
// ignored. It returns every verified update by label, with
// complete=true when every wanted label was either delivered or covered
// by a verified page (so an absent label is an unpublished label). A
// nil map means the fast path is
// unavailable (old server, transport failure) or the first page failed
// a check — the caller falls back to the per-label batch path, which
// can still localise an offender. Page limits are kept proportional to
// the labels still wanted and paging stops once the server's Total
// shows the remaining window is mostly records nobody asked for, so a
// sparse label set never downloads the archive span between them.
func (c *Client) rangeCatchUp(ctx context.Context, missing []string) (map[string]core.KeyUpdate, bool) {
	wanted := make([]string, len(missing))
	copy(wanted, missing)
	sort.Strings(wanted)
	hi := wanted[len(wanted)-1]
	next := 0 // first wanted label not yet delivered or covered
	got := make(map[string]core.KeyUpdate, len(missing))
	fail := func() (map[string]core.KeyUpdate, bool) {
		c.met.catchupFallback.Inc()
		if len(got) == 0 {
			return nil, false
		}
		return got, false // keep the pages that did verify
	}
	for page := 0; page < catchupMaxPages && next < len(wanted); page++ {
		lo, remaining := wanted[next], len(wanted)-next
		limit := min(catchupRangeLimit, catchupDensityFactor*remaining+catchupDensitySlack)
		body, status, err := c.getGated(ctx,
			"/v1/catchup?from="+url.QueryEscape(lo)+"&to="+url.QueryEscape(hi)+
				"&limit="+fmt.Sprint(limit), catchupBodyLimit)
		if err != nil || status != http.StatusOK {
			// Old server (404), proxy trouble, transport failure, or a
			// token-gated server and no wallet (401 → the per-label
			// fallback path still serves, it is deliberately ungated):
			// not an integrity event, just no fast path today.
			if page == 0 {
				return nil, false
			}
			return got, false
		}
		start := time.Now()
		// The limit is ours to enforce: a server that ignores it must not
		// make the client parse and subgroup-check a page it never asked
		// for, so the claimed count is read before any point is.
		if _, n, err := wire.CatchUpHeader(body); err != nil || n > limit {
			return fail()
		}
		resp, err := c.codec.UnmarshalCatchUpResponse(body)
		if err != nil {
			return fail()
		}
		n := len(resp.Updates)
		// The response must stay inside the requested window (decode
		// already guarantees ascending order within it).
		if n > 0 && (resp.Updates[0].Label < lo || resp.Updates[n-1].Label > hi) {
			return fail()
		}
		// A page claiming the window holds records while delivering none
		// is inconsistent — complete=true here would misreport the
		// remaining labels as unpublished on the server's word alone.
		if n == 0 && resp.Total > 0 {
			return fail()
		}
		// Admission: the blinded batch equation — per-update binding, one
		// pairing product for the page — gates what the cache and the
		// caller ever see. resp.Aggregate and resp.Root are not consulted:
		// the aggregate binds only the SUM of the points and the root is
		// unsigned, so neither could admit anything.
		if ok, err := c.sc.VerifyUpdateBatch(c.spub, resp.Updates); err != nil || !ok {
			return fail()
		}
		c.met.verifyNS.Since(start)
		c.met.catchupPages.Inc()
		for _, u := range resp.Updates {
			c.store(u)
			got[u.Label] = u
		}
		if n > 0 {
			// Every wanted label up to the last delivered one is settled:
			// the page carried ALL archived records in [lo, last], so a
			// wanted label absent from it is not archived.
			last := resp.Updates[n-1].Label
			for next < len(wanted) && wanted[next] <= last {
				next++
			}
		}
		switch {
		case resp.Total <= n:
			return got, true // whole window delivered
		case next >= len(wanted):
			return got, true // every wanted label delivered or covered
		case resp.Total-n > catchupDensityFactor*(len(wanted)-next)+catchupDensitySlack:
			// Sparse: the rest of the window is mostly records nobody
			// asked for — cheaper to finish per-label.
			return got, false
		}
	}
	return got, false
}
