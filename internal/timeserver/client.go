package timeserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/token"
	"timedrelease/internal/wire"
)

// ErrNotYetPublished is returned when the requested update's release
// instant has not arrived (or the server has not published it yet).
var ErrNotYetPublished = errors.New("timeserver: update not yet published")

// ErrBadUpdate is returned when a fetched update fails the
// self-authentication check against the pinned server key — e.g. a
// compromised or impersonated server.
var ErrBadUpdate = errors.New("timeserver: update failed verification against pinned server key")

// Client fetches and verifies key updates from a time server. The
// server's public key is pinned at construction (the trust anchor);
// every fetched update is verified before it is returned or cached, so a
// malicious transport can cause unavailability but never a wrong
// decryption key.
type Client struct {
	base    string
	http    *http.Client
	sc      *core.Scheme
	spub    core.ServerPublicKey
	codec   *wire.Codec
	noCache bool
	retry   RetryPolicy
	wallet  *token.Wallet // nil: no tokens attached (tokens.go)

	mu    sync.RWMutex
	cache map[string]core.KeyUpdate

	met clientMetrics
}

// clientMetrics are the client-side counters and latency histograms
// (names client.*; see docs/OBSERVABILITY.md). All nil until
// WithClientMetrics; obs types no-op on nil.
type clientMetrics struct {
	fetchNS         *obs.Histogram // HTTP round trip, per request (incl. retries)
	verifyNS        *obs.Histogram // decode + pairing verification
	cacheHit        *obs.Counter   // updates served from the local cache
	cacheMiss       *obs.Counter   // updates that needed a fetch
	catchupBatches  *obs.Counter   // batched CatchUp verifications
	catchupPages    *obs.Counter   // /v1/catchup pages admitted by the blinded batch check
	catchupFallback *obs.Counter   // range-page/batch checks that fell back a level
	retries         *obs.Counter   // transport-level retry attempts
	catchupDegraded *obs.Counter   // CatchUp calls returning a PartialError
	streamEvents    *obs.Counter   // verified updates delivered over /v1/stream
	tokensFetched   *obs.Counter   // tokens issued into the wallet
	tokenRedeemed   *obs.Counter   // gated requests admitted with a token
	tokenRejected   *obs.Counter   // tokens the server refused as spent (409)
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the HTTP client (timeouts, transports).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithClientMetrics instruments the client (and its embedded
// core.Scheme) against r: fetch and verification latencies, cache
// hits/misses, and catch-up batch fallbacks.
func WithClientMetrics(r *obs.Registry) ClientOption {
	return func(c *Client) {
		c.sc.Instrument(r)
		c.met = clientMetrics{
			fetchNS:         r.Histogram("client.fetch_ns"),
			verifyNS:        r.Histogram("client.verify_ns"),
			cacheHit:        r.Counter("client.cache_hit"),
			cacheMiss:       r.Counter("client.cache_miss"),
			catchupBatches:  r.Counter("client.catchup_batches"),
			catchupPages:    r.Counter("client.catchup_range_pages"),
			catchupFallback: r.Counter("client.catchup_fallback"),
			retries:         r.Counter("client.retries"),
			catchupDegraded: r.Counter("client.catchup_degraded"),
			streamEvents:    r.Counter("client.stream_events"),
			tokensFetched:   r.Counter("client.tokens_fetched"),
			tokenRedeemed:   r.Counter("client.token_redeemed"),
			tokenRejected:   r.Counter("client.token_rejected"),
		}
	}
}

// WithoutCache disables the verified-update cache: every Update and
// CatchUp hits the network and re-verifies. Useful for load generation
// (a harness must exercise the server, not the client's map) and for
// memory-constrained receivers that trade CPU for space.
func WithoutCache() ClientOption {
	return func(c *Client) { c.noCache = true }
}

// NewClient returns a client for the server at baseURL, verifying all
// updates against the pinned public key spub.
func NewClient(baseURL string, set *params.Set, spub core.ServerPublicKey, opts ...ClientOption) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  &http.Client{Timeout: 30 * time.Second},
		sc:    core.NewScheme(set),
		spub:  spub,
		codec: wire.NewCodec(set),
		cache: make(map[string]core.KeyUpdate),
		retry: DefaultRetry,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ServerPublicKey returns the pinned key.
func (c *Client) ServerPublicKey() core.ServerPublicKey { return c.spub }

// Update returns the verified update for label, from cache if possible.
func (c *Client) Update(ctx context.Context, label string) (core.KeyUpdate, error) {
	if u, ok := c.cached(label); ok {
		return u, nil
	}
	body, status, err := c.get(ctx, "/v1/update/"+label)
	if err != nil {
		return core.KeyUpdate{}, err
	}
	if status == http.StatusNotFound {
		return core.KeyUpdate{}, ErrNotYetPublished
	}
	if status != http.StatusOK {
		return core.KeyUpdate{}, fmt.Errorf("timeserver: unexpected status %d", status)
	}
	return c.verifyAndCache(label, body)
}

// Latest returns the newest verified update the server has published.
func (c *Client) Latest(ctx context.Context) (core.KeyUpdate, error) {
	body, status, err := c.get(ctx, "/v1/latest")
	if err != nil {
		return core.KeyUpdate{}, err
	}
	if status == http.StatusNotFound {
		return core.KeyUpdate{}, ErrNotYetPublished
	}
	if status != http.StatusOK {
		return core.KeyUpdate{}, fmt.Errorf("timeserver: unexpected status %d", status)
	}
	u, err := c.codec.UnmarshalKeyUpdate(body)
	if err != nil {
		return core.KeyUpdate{}, err
	}
	return c.verifyAndCache(u.Label, body)
}

// Labels returns all published labels. A list over the 1 MiB body cap
// (~50k labels) is an error, never a cut list; Relay.Run rides past it
// on the stream's from-replay.
func (c *Client) Labels(ctx context.Context) ([]string, error) {
	body, status, err := c.get(ctx, "/v1/labels")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("timeserver: unexpected status %d", status)
	}
	if len(body) == 0 {
		return nil, nil
	}
	return strings.Split(string(body), "\n"), nil
}

// cached returns the update for label from the verified cache,
// maintaining the hit/miss counters. Always a miss with WithoutCache.
func (c *Client) cached(label string) (core.KeyUpdate, bool) {
	if c.noCache {
		c.met.cacheMiss.Inc()
		return core.KeyUpdate{}, false
	}
	c.mu.RLock()
	u, ok := c.cache[label]
	c.mu.RUnlock()
	if ok {
		c.met.cacheHit.Inc()
	} else {
		c.met.cacheMiss.Inc()
	}
	return u, ok
}

// store caches a verified update (no-op with WithoutCache).
func (c *Client) store(u core.KeyUpdate) {
	if c.noCache {
		return
	}
	c.mu.Lock()
	c.cache[u.Label] = u
	c.mu.Unlock()
}

// verifyAndCache decodes, verifies and caches an update body.
func (c *Client) verifyAndCache(label string, body []byte) (core.KeyUpdate, error) {
	defer c.met.verifyNS.Since(time.Now())
	u, err := c.codec.UnmarshalKeyUpdate(body)
	if err != nil {
		return core.KeyUpdate{}, err
	}
	if u.Label != label {
		return core.KeyUpdate{}, fmt.Errorf("timeserver: server returned update for %q, asked for %q", u.Label, label)
	}
	if !c.sc.VerifyUpdate(c.spub, u) {
		return core.KeyUpdate{}, ErrBadUpdate
	}
	c.store(u)
	return u, nil
}

// CachedLen reports how many verified updates the client holds (update
// fetches are amortised across any number of ciphertexts — experiment
// E8).
func (c *Client) CachedLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cache)
}

// get performs one logical fetch under the client's retry policy:
// transport errors, truncated bodies and transient statuses (429/5xx)
// are retried with capped exponential backoff and jitter; definitive
// answers (200, 404, …) are returned as-is on the attempt that got
// them, and a body over the cap is an error naming the path, never a
// silently cut answer. The caller's ctx bounds the whole operation,
// including backoff sleeps; the policy's PerAttempt bounds each try.
func (c *Client) get(ctx context.Context, path string) ([]byte, int, error) {
	return c.getLimited(ctx, path, 1<<20)
}

// getLimited is get with an explicit response-body cap: single-update
// responses stay under the default 1 MiB, but a catch-up range of 64k
// updates is legitimately tens of MiB.
func (c *Client) getLimited(ctx context.Context, path string, bodyLimit int64) ([]byte, int, error) {
	return c.request(ctx, http.MethodGet, path, nil, bodyLimit, nil)
}

// getLimitedHeader is getLimited with extra request headers (token
// redemption attaches the credential this way; see tokens.go).
func (c *Client) getLimitedHeader(ctx context.Context, path string, bodyLimit int64, hdr http.Header) ([]byte, int, error) {
	return c.request(ctx, http.MethodGet, path, nil, bodyLimit, hdr)
}

// post sends a request body and returns the response under the default
// body cap, with the same retry policy as get. Callers must only post
// idempotent payloads — token issuance is (blind-signing the same
// points twice yields the same signatures).
func (c *Client) post(ctx context.Context, path string, payload []byte) ([]byte, int, error) {
	return c.request(ctx, http.MethodPost, path, payload, 1<<20, nil)
}

// request is the transport core behind get/getLimited/post: the retry
// loop with capped exponential backoff over single doOnce attempts.
func (c *Client) request(ctx context.Context, method, path string, payload []byte, bodyLimit int64, hdr http.Header) ([]byte, int, error) {
	defer c.met.fetchNS.Since(time.Now())
	p := c.retry
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.met.retries.Inc()
			if err := sleepCtx(ctx, p.backoff(attempt-1)); err != nil {
				break // ctx cancelled while backing off
			}
		}
		body, status, err := c.doOnce(ctx, method, path, payload, p.PerAttempt, bodyLimit, hdr)
		if err == nil {
			if retryableStatus(status) && attempt < p.MaxAttempts {
				lastErr = fmt.Errorf("timeserver: %s: transient status %d", path, status)
				continue
			}
			return body, status, nil
		}
		if errors.Is(err, errResponseTooLarge) {
			return nil, 0, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller gave up; do not mask that as "server down"
		}
	}
	if p.MaxAttempts > 1 {
		return nil, 0, fmt.Errorf("timeserver: %s: giving up after %d attempts: %w", path, p.MaxAttempts, lastErr)
	}
	return nil, 0, lastErr
}

// doOnce is a single HTTP attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, timeout time.Duration, bodyLimit int64, hdr http.Header) ([]byte, int, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reqBody)
	if err != nil {
		return nil, 0, fmt.Errorf("timeserver: building request: %w", err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("timeserver: %s: %w", path, err)
	}
	defer resp.Body.Close()
	// One byte past the cap tells a body that fits from one that was cut.
	body, err := io.ReadAll(io.LimitReader(resp.Body, bodyLimit+1))
	if err != nil {
		return nil, 0, fmt.Errorf("timeserver: reading response: %w", err)
	}
	if int64(len(body)) > bodyLimit {
		return nil, 0, fmt.Errorf("%w: %s: more than %d bytes", errResponseTooLarge, path, bodyLimit)
	}
	return body, resp.StatusCode, nil
}

// errResponseTooLarge marks a response body over the caller's cap. It
// is a definitive answer — the server would send the same body again —
// so request does not retry it.
var errResponseTooLarge = errors.New("timeserver: response body over limit")

// FetchBootstrap retrieves (parameters, server public key, schedule)
// from an untrusted-transport server for first-time setup. The caller
// must authenticate the returned key out of band before pinning it —
// exactly like a CA root.
func FetchBootstrap(ctx context.Context, baseURL string, h *http.Client) (*params.Set, core.ServerPublicKey, timefmt.Schedule, error) {
	if h == nil {
		h = &http.Client{Timeout: 30 * time.Second}
	}
	base := strings.TrimRight(baseURL, "/")
	get := func(path string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := h.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("timeserver: %s returned %d", path, resp.StatusCode)
		}
		return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	}

	rawParams, err := get("/v1/params")
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, fmt.Errorf("timeserver: fetching params: %w", err)
	}
	set, err := params.Unmarshal(rawParams)
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, err
	}
	rawKey, err := get("/v1/server-key")
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, fmt.Errorf("timeserver: fetching server key: %w", err)
	}
	spub, err := wire.NewCodec(set).UnmarshalServerPublicKey(rawKey)
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, err
	}
	rawSched, err := get("/v1/schedule")
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, fmt.Errorf("timeserver: fetching schedule: %w", err)
	}
	d, err := time.ParseDuration(strings.TrimSpace(string(rawSched)))
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, fmt.Errorf("timeserver: parsing schedule: %w", err)
	}
	sched, err := timefmt.NewSchedule(d)
	if err != nil {
		return nil, core.ServerPublicKey{}, timefmt.Schedule{}, err
	}
	return set, spub, sched, nil
}
