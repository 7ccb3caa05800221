// Package timeserver implements the paper's completely passive time
// server and a verifying client.
//
// The server's only job (§3) is to publish the time-bound key update
// I_T = s·H1(T) when instant T arrives, and to keep old updates publicly
// readable. Passivity is enforced structurally: the HTTP handler is
// built over a read-only view (public parameters, server public key,
// archive of already-published updates) and has no path to the signing
// key — a request can never cause an update to be created, so asking for
// a future label cannot leak it. The server keeps no per-user state and
// logs nothing about requesters, matching the paper's GPS analogy.
package timeserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/parallel"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/token"
	"timedrelease/internal/wire"
)

// Server signs and publishes time-bound key updates on a schedule.
type Server struct {
	sc    *core.Scheme
	key   *core.ServerKeyPair
	sched timefmt.Schedule
	arch  archive.Archive
	codec *wire.Codec
	clock func() time.Time

	published atomic.Int64 // updates published (for experiments)
	served    atomic.Int64 // HTTP requests served
	hub       *hub         // coalesced broadcast to streams and long-poll waiters
	draining  atomic.Bool  // shutting down: long-polls return immediately

	// Anonymous metered access (nil: tokens neither issued nor
	// required). The issuer holds a DEDICATED signing key — never the
	// timed-release key (checkTokenKeySeparation) — so passivity of
	// release is untouched: no request can still cause a key update.
	issuer *token.Issuer
	gate   *token.Verifier

	// Observability (nil without WithMetrics/WithLogger; obs types
	// no-op on nil). The registry never records anything about
	// requesters — counts and latencies only, matching the paper's
	// no-user-state server.
	reg        *obs.Registry
	log        *obs.Logger
	mPublished *obs.Counter
	mPublishNS *obs.Histogram
}

// Option configures a Server.
type Option func(*Server)

// WithArchive substitutes the update archive (default: in-memory).
func WithArchive(a archive.Archive) Option {
	return func(s *Server) { s.arch = a }
}

// WithClock substitutes the time source (tests and simulations).
func WithClock(clock func() time.Time) Option {
	return func(s *Server) { s.clock = clock }
}

// WithMetrics instruments the server (and its embedded core.Scheme and
// the shared parallel pool) against r: request counts and latencies
// per endpoint, archive hits/misses, publish counts and signing
// latencies. See docs/OBSERVABILITY.md for the metric names.
func WithMetrics(r *obs.Registry) Option {
	return func(s *Server) {
		s.reg = r
		s.sc.Instrument(r)
		parallel.Instrument(r)
		s.mPublished = r.Counter("timeserver.published")
		s.mPublishNS = r.Histogram("timeserver.publish_ns")
	}
}

// WithLogger emits structured events (publish, catch-up) to l.
func WithLogger(l *obs.Logger) Option {
	return func(s *Server) { s.log = l }
}

// NewServer creates a time server for the given parameter set, signing
// key and epoch schedule.
func NewServer(set *params.Set, key *core.ServerKeyPair, sched timefmt.Schedule, opts ...Option) *Server {
	s := &Server{
		sc:    core.NewScheme(set),
		key:   key,
		sched: sched,
		arch:  archive.NewMemory(),
		codec: wire.NewCodec(set),
		clock: time.Now,
		hub:   newHub(),
	}
	for _, o := range opts {
		o(s)
	}
	s.checkTokenKeySeparation()
	s.hub.instrument(s.reg)
	return s
}

// PublicKey returns the server's public key (the trust anchor clients
// pin).
func (s *Server) PublicKey() core.ServerPublicKey { return s.key.Pub }

// Schedule returns the epoch schedule.
func (s *Server) Schedule() timefmt.Schedule { return s.sched }

// PublishUpTo signs and archives the updates of every epoch whose start
// is at or before now and which is not yet published, from the epoch
// after the latest archived label (or the current epoch on first call).
// This is the catch-up path after a restart: the paper's server "does
// not need to remember any information of key updates since it can
// generate a key update for any particular instant directly using its
// private key".
func (s *Server) PublishUpTo(now time.Time) (int, error) {
	cur := s.sched.Index(now)
	from := cur
	if last, ok := s.arch.Latest(); ok {
		if t, err := s.sched.ParseLabel(last.Label); err == nil {
			from = s.sched.Index(t) + 1
		}
	}
	n := 0
	for i := from; i <= cur; i++ {
		label := s.sched.LabelAt(i)
		if _, ok := s.arch.Get(label); ok {
			continue
		}
		u := s.issue(label)
		if err := s.arch.Put(u); err != nil {
			return n, fmt.Errorf("timeserver: archiving update %s: %w", label, err)
		}
		s.mPublished.Inc()
		s.published.Add(1)
		s.broadcast(i, u)
		n++
	}
	if n > 0 {
		s.log.Event("publish-catchup", "from", s.sched.LabelAt(from), "to", s.sched.LabelAt(cur), "n", n)
	}
	return n, nil
}

// broadcast encodes a freshly archived update ONCE and hands the bytes
// to every parked subscriber in one hub pass. This is the whole cost a
// publish pays for its audience — independent of subscriber count. idx
// is the label's schedule index; stream ordering rides on it.
func (s *Server) broadcast(idx int64, u core.KeyUpdate) {
	body := s.codec.MarshalKeyUpdate(u)
	s.hub.encodes.Add(1)
	s.hub.publish(idx, u.Label, body)
}

// issue signs one update, recording the signing latency.
func (s *Server) issue(label string) core.KeyUpdate {
	start := time.Now()
	u := s.sc.IssueUpdate(s.key, label)
	s.mPublishNS.Since(start)
	return u
}

// PublishLabel signs and archives one specific label, refusing labels
// whose epoch has not yet arrived — the trust assumption "the server
// should not give out any I_t at an instant t' < t" (§3).
func (s *Server) PublishLabel(label string) error {
	t, err := s.sched.ParseLabel(label)
	if err != nil {
		return err
	}
	if t.After(s.clock()) {
		return ErrFutureLabel
	}
	u := s.issue(label)
	if err := s.arch.Put(u); err != nil {
		return err
	}
	s.mPublished.Inc()
	s.published.Add(1)
	s.broadcast(s.sched.Index(t), u)
	s.log.Event("publish", "label", label)
	return nil
}

// ErrFutureLabel reports an attempt to publish an update before its
// instant has arrived.
var ErrFutureLabel = errors.New("timeserver: refusing to publish an update for a future instant")

// Run publishes updates as epochs pass until ctx is cancelled. It
// catches up immediately on entry, then wakes at every epoch boundary.
func (s *Server) Run(ctx context.Context) error {
	for {
		if _, err := s.PublishUpTo(s.clock()); err != nil {
			return err
		}
		now := s.clock()
		next := s.sched.Start(s.sched.Index(now) + 1)
		timer := time.NewTimer(next.Sub(now))
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// Drain moves the server into shutdown mode: every in-flight and
// future long-poll wait returns immediately (503) instead of holding
// its connection open, and every in-flight /v1/stream connection gets
// a terminal SSE comment and a clean close, so http.Server.Shutdown
// can complete within its grace period even with tens of thousands of
// receivers "waiting in alert". Ordinary catch-up and update fetches
// are unaffected — they finish normally under Shutdown's own
// in-flight handling.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.hub.drain()
}

// Subscribers returns how many connections are currently parked on the
// broadcast hub (streams plus long-poll waiters).
func (s *Server) Subscribers() int { return s.hub.count() }

// Published returns the number of updates this server has published —
// note it is independent of the number of users (experiment E2).
func (s *Server) Published() int64 { return s.published.Load() }

// Served returns the number of HTTP requests served.
func (s *Server) Served() int64 { return s.served.Load() }

// Metrics returns the registry passed to WithMetrics, or nil. The
// caller (cmd/treserver) mounts its Handler at /metrics.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the public HTTP API. It closes over only the
// read-only view of the server — parameters, public key, schedule and
// the archive — so no request can reach the signing key.
//
//	GET /v1/params        → parameter set (text format)
//	GET /v1/server-key    → wire-encoded server public key
//	GET /v1/schedule      → granularity (text, time.Duration format)
//	GET /v1/update/{label}→ wire-encoded update, 404 until published
//	GET /v1/wait/{label}  → long-poll variant (?timeout=25s)
//	GET /v1/stream        → SSE push of every future update (?from=label replays)
//	GET /v1/catchup       → range download
//	GET /v1/latest        → most recent update
//	GET /v1/labels        → newline-separated published labels
//	GET /v1/healthz       → 200 ok
func (s *Server) Handler() http.Handler {
	view := &publicView{
		set:      s.sc.Set,
		pub:      s.key.Pub,
		sched:    s.sched,
		arch:     s.arch,
		codec:    s.codec,
		served:   &s.served,
		hub:      s.hub,
		draining: &s.draining,
		reg:      s.reg,
		archHit:  s.reg.Counter("timeserver.archive_hit"),
		archMiss: s.reg.Counter("timeserver.archive_miss"),
		issuer:   s.issuer,
		gate:     s.gate,
		tokenMet: newTokenMetrics(s.reg),
	}
	return view.routes()
}

// publicView is the request-handling half of the server. It deliberately
// has no reference to *Server or the private key. Its registry (when
// instrumented) carries only aggregate counts and latencies — nothing
// identifying a requester ever enters it.
type publicView struct {
	set      *params.Set
	pub      core.ServerPublicKey
	sched    timefmt.Schedule
	arch     archive.Archive
	codec    *wire.Codec
	served   *atomic.Int64
	hub      *hub
	draining *atomic.Bool
	reg      *obs.Registry
	archHit  *obs.Counter // archive lookups that found the label
	archMiss *obs.Counter // … that did not (future/unknown label)

	// Token issuance/gating (tokens.go); both nil on an open server.
	issuer   *token.Issuer
	gate     *token.Verifier
	tokenMet tokenMetrics
}

func (v *publicView) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/params", v.observe("params", v.handleParams))
	mux.HandleFunc("GET /v1/server-key", v.observe("server-key", v.handleServerKey))
	mux.HandleFunc("GET /v1/schedule", v.observe("schedule", v.handleSchedule))
	mux.HandleFunc("GET /v1/update/{label}", v.observe("update", v.handleUpdate))
	mux.HandleFunc("GET /v1/catchup", v.observe("catchup", v.requireToken(v.handleCatchUp)))
	mux.HandleFunc("GET /v1/wait/{label}", v.observe("wait", v.handleWait))
	mux.HandleFunc("GET /v1/stream", v.observe("stream", v.requireToken(v.handleStream)))
	if v.issuer != nil {
		mux.HandleFunc("POST /v1/tokens/issue", v.observe("tokens-issue", v.handleTokenIssue))
		mux.HandleFunc("GET /v1/tokens/key", v.observe("tokens-key", v.handleTokenKey))
	}
	mux.HandleFunc("GET /v1/latest", v.observe("latest", v.handleLatest))
	mux.HandleFunc("GET /v1/labels", v.observe("labels", v.handleLabels))
	mux.HandleFunc("GET /v1/healthz", v.observe("healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

// observe wraps a handler with the total-served counter and, when the
// server is instrumented, a per-endpoint request counter and latency
// histogram. The per-endpoint metrics are bound once at route setup —
// no map lookups on the request path.
func (v *publicView) observe(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := v.reg.Counter("timeserver.requests." + endpoint)
	latency := v.reg.Histogram("timeserver.request_ns." + endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		v.served.Add(1)
		requests.Inc()
		defer latency.Since(time.Now())
		h(w, r)
	}
}

func (v *publicView) handleParams(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(v.set.Marshal())
}

func (v *publicView) handleServerKey(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v.codec.MarshalServerPublicKey(v.pub))
}

func (v *publicView) handleSchedule(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, v.sched.Granularity)
}

func (v *publicView) handleUpdate(w http.ResponseWriter, r *http.Request) {
	label := r.PathValue("label")
	u, ok := v.arch.Get(label)
	if !ok {
		// Future or unknown label: nothing is revealed, nothing is signed.
		v.archMiss.Inc()
		http.Error(w, "update not published", http.StatusNotFound)
		return
	}
	v.archHit.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v.codec.MarshalKeyUpdate(u))
}

// maxCatchUpRange caps how many updates one range response carries;
// longer ranges are truncated (oldest first) and the Total field tells
// the client to page. 64k updates is ~4 MiB on SS512 — one request for
// a month and a half of minute epochs.
const maxCatchUpRange = 65536

// handleCatchUp serves GET /v1/catchup?from=L&to=L[&limit=n]: every
// archived update with from ≤ label ≤ to (ascending, truncated to
// limit), followed by two reserved fields — where the updates' sum and
// a Merkle root over them used to be, now always the identity and the
// zero root. No current client consults them (each update authenticates
// itself); they are still sent so the body keeps its layout and length
// until the format drops them, and a client old enough to check them
// falls back to per-label fetches. Like every other route this is
// read-only over the archive — a range request cannot cause anything to
// be signed, so passivity is untouched.
func (v *publicView) handleCatchUp(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" || timefmt.Compare(from, to) > 0 {
		http.Error(w, "need from <= to", http.StatusBadRequest)
		return
	}
	limit := maxCatchUpRange
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = min(n, maxCatchUpRange)
	}
	res, err := v.arch.Range(from, to, limit)
	if err != nil {
		http.Error(w, "range unavailable", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v.codec.MarshalCatchUpResponse(wire.CatchUpResponse{
		Total:     res.Total,
		Updates:   res.Updates,
		Aggregate: v.set.B.Infinity(backend.G2), // reserved, as is the zero Root
	}))
}

func (v *publicView) handleLatest(w http.ResponseWriter, _ *http.Request) {
	u, ok := v.arch.Latest()
	if !ok {
		v.archMiss.Inc()
		http.Error(w, "no updates published yet", http.StatusNotFound)
		return
	}
	v.archHit.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v.codec.MarshalKeyUpdate(u))
}

func (v *publicView) handleLabels(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, strings.Join(v.arch.Labels(), "\n"))
}

// Production http.Server limits shared by the serving daemons
// (cmd/treserver, cmd/trerelay, trethreshold serve). A stuck or
// malicious header-writer is cut off at ReadHeaderTimeout; idle
// keep-alive connections are reaped; headers
// are capped well under the default 1 MiB (this protocol needs a
// request line and little else). Deliberately no ReadTimeout or
// WriteTimeout: /v1/wait parks for up to two minutes and /v1/stream
// legitimately writes forever — per-connection lifetime is governed by
// Drain plus Shutdown instead.
const (
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultMaxHeaderBytes    = 64 << 10
)

// NewHTTPServer wraps a handler in an http.Server carrying the
// production limits above. readHeaderTimeout <= 0 selects the default
// (tests shrink it to exercise the stuck-header cutoff quickly).
func NewHTTPServer(h http.Handler, readHeaderTimeout time.Duration) *http.Server {
	if readHeaderTimeout <= 0 {
		readHeaderTimeout = DefaultReadHeaderTimeout
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       DefaultIdleTimeout,
		MaxHeaderBytes:    DefaultMaxHeaderBytes,
	}
}

// ServeAndDrain is the serving daemons' lifecycle: hs serves on ln while
// svc (a Server's publish loop or a Relay's upstream sync) runs, until
// ctx is cancelled or either of them fails. A failure closes hs and is
// returned. On cancellation it calls stopping, drains svc — parked
// streams and long-polls answer at once, so the grace period is spent
// on genuinely in-flight work such as catch-up fetches — and gives hs
// five seconds to finish.
func ServeAndDrain(ctx context.Context, ln net.Listener, hs *http.Server, svc interface {
	Run(context.Context) error
	Drain()
}, stopping func()) error {
	errCh := make(chan error, 2)
	run := func(f func() error, clean error) {
		if err := f(); !errors.Is(err, clean) {
			errCh <- err
			return
		}
		errCh <- nil
	}
	go run(func() error { return hs.Serve(ln) }, http.ErrServerClosed)
	go run(func() error { return svc.Run(ctx) }, context.Canceled)

	select {
	case <-ctx.Done():
		stopping()
	case err := <-errCh:
		if err != nil {
			hs.Close()
			return err
		}
	}
	svc.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutdownCtx)
}
