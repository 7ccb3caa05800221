// The stateless fan-out relay: serving capacity scales horizontally
// because updates are self-authenticating. A relay holds NO secret
// material — it subscribes to an upstream server (or another relay)
// through the verifying client, checks ê(sG, H1(T)) = ê(G, I_T) ONCE
// per update on ingest, and re-serves the identical public surface
// (/v1/stream, /v1/wait, /v1/update, /v1/catchup, …) from its own
// archive and broadcast hub. A compromised relay can withhold updates
// (its consumers fail over) but can never forge one: every downstream
// client still verifies against the same pinned server key. This is
// the paper's GPS analogy made horizontal — anyone may rebroadcast the
// signal, because trust rides in the signal itself.
package timeserver

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/wire"
)

// Relay subscribes upstream and fans updates out downstream. Zero
// signing capability by construction: it is built from a verifying
// Client and a read-only serving surface, with nothing in between that
// could mint an update.
type Relay struct {
	set   *params.Set
	spub  core.ServerPublicKey
	sched timefmt.Schedule
	arch  archive.Archive
	codec *wire.Codec
	hub   *hub
	up    *Client
	retry RetryPolicy

	served   atomic.Int64
	ingested atomic.Int64
	draining atomic.Bool

	reg         *obs.Registry
	log         *obs.Logger
	cIngested   *obs.Counter
	cReconnects *obs.Counter
	cSyncs      *obs.Counter
}

// RelayOption configures a Relay.
type RelayOption func(*Relay)

// RelayWithArchive substitutes the relay's local update store (default:
// in-memory). A durable archive lets a restarted relay serve its
// backlog before the first upstream byte arrives.
func RelayWithArchive(a archive.Archive) RelayOption {
	return func(r *Relay) { r.arch = a }
}

// RelayWithMetrics instruments the relay: its serving surface carries
// the same timeserver.* metric names as an origin server (same
// protocol, same meanings), plus relay.* ingest counters.
func RelayWithMetrics(reg *obs.Registry) RelayOption {
	return func(r *Relay) {
		r.reg = reg
		r.cIngested = reg.Counter("relay.ingested")
		r.cReconnects = reg.Counter("relay.reconnects")
		r.cSyncs = reg.Counter("relay.catchup_syncs")
	}
}

// RelayWithLogger emits structured events (ingest, reconnect) to l.
func RelayWithLogger(l *obs.Logger) RelayOption {
	return func(r *Relay) { r.log = l }
}

// RelayWithRetry substitutes the reconnect backoff policy (only its
// BaseDelay/MaxDelay are used — a relay is a daemon and never gives
// up on its upstream).
func RelayWithRetry(p RetryPolicy) RelayOption {
	return func(r *Relay) { r.retry = p }
}

// NewRelay builds a relay over an upstream verifying client. The
// client's pinned server key is the relay's trust anchor and the key
// its own consumers should pin too — the relay introduces no key of
// its own.
func NewRelay(upstream *Client, sched timefmt.Schedule, opts ...RelayOption) *Relay {
	r := &Relay{
		set:   upstream.codec.Set,
		spub:  upstream.spub,
		sched: sched,
		arch:  archive.NewMemory(),
		codec: upstream.codec,
		hub:   newHub(),
		up:    upstream,
		retry: DefaultRetry,
	}
	for _, o := range opts {
		o(r)
	}
	r.hub.instrument(r.reg)
	return r
}

// ServerPublicKey returns the upstream key this relay verifies against
// (and the one its consumers should pin).
func (r *Relay) ServerPublicKey() core.ServerPublicKey { return r.spub }

// Ingested returns how many verified updates this relay has taken in.
func (r *Relay) Ingested() int64 { return r.ingested.Load() }

// Served returns the number of downstream HTTP requests served.
func (r *Relay) Served() int64 { return r.served.Load() }

// Subscribers returns how many downstream connections are parked on
// the relay's hub.
func (r *Relay) Subscribers() int { return r.hub.count() }

// Metrics returns the registry passed to RelayWithMetrics, or nil.
func (r *Relay) Metrics() *obs.Registry { return r.reg }

// Drain moves the relay into shutdown mode exactly like Server.Drain:
// streams get a terminal comment, long-polls answer 503.
func (r *Relay) Drain() {
	r.draining.Store(true)
	r.hub.drain()
}

// Handler returns the relay's downstream HTTP API — the same public
// surface an origin server exposes, served from the relay's own
// archive and hub. Downstream clients (and further relays) use it
// unchanged; nothing in it can reach a signing key because the relay
// holds none.
func (r *Relay) Handler() http.Handler {
	view := &publicView{
		set:      r.set,
		pub:      r.spub,
		sched:    r.sched,
		arch:     r.arch,
		codec:    r.codec,
		served:   &r.served,
		hub:      r.hub,
		draining: &r.draining,
		reg:      r.reg,
		archHit:  r.reg.Counter("timeserver.archive_hit"),
		archMiss: r.reg.Counter("timeserver.archive_miss"),
	}
	return view.routes()
}

// ingest stores one verified update (verification already happened in
// the upstream client — exactly once per update) and broadcasts it
// downstream: one encode, one hub pass, like an origin publish.
func (r *Relay) ingest(u core.KeyUpdate) bool {
	if _, ok := r.arch.Get(u.Label); ok {
		return false
	}
	if err := r.arch.Put(u); err != nil {
		r.log.Event("relay-archive-error", "label", u.Label, "err", err.Error())
		return false
	}
	t, err := r.sched.ParseLabel(u.Label)
	if err != nil {
		// Not an epoch of this schedule: archived and servable by label,
		// but unbroadcastable — the stream is ordered by schedule index.
		r.log.Event("relay-offschedule-label", "label", u.Label)
		r.ingested.Add(1)
		r.cIngested.Inc()
		return true
	}
	// Counted before the broadcast: a subscriber that has the update in
	// hand must never read a count that does not include it yet.
	r.ingested.Add(1)
	r.cIngested.Inc()
	body := r.codec.MarshalKeyUpdate(u)
	r.hub.encodes.Add(1)
	r.hub.publish(r.sched.Index(t), u.Label, body)
	return true
}

// syncOnce converges the local archive on the upstream one via the
// range catch-up path: list upstream labels, CatchUp the missing ones
// (one range request + one pairing product per page however many there
// are), ingest everything verified. A degraded catch-up is progress,
// not failure — the remainder is retried next cycle.
func (r *Relay) syncOnce(ctx context.Context) (int, error) {
	labels, err := r.up.Labels(ctx)
	if err != nil {
		return 0, err
	}
	var missing []string
	for _, l := range labels {
		if _, ok := r.arch.Get(l); !ok {
			missing = append(missing, l)
		}
	}
	if len(missing) == 0 {
		return 0, nil
	}
	r.cSyncs.Inc()
	ups, err := r.up.CatchUp(ctx, missing)
	var pe *PartialError
	if err != nil && !errors.As(err, &pe) {
		return 0, err
	}
	n := 0
	for _, u := range ups {
		if r.ingest(u) {
			n++
		}
	}
	if n > 0 {
		r.log.Event("relay-sync", "ingested", n)
	}
	return n, nil
}

// Sync converges the relay's archive on its upstream once and returns
// how many updates were ingested. It is the deterministic alternative
// to Run: a driver (tests, cron-style operation) calls it at moments of
// its choosing instead of letting the relay ride the push stream.
func (r *Relay) Sync(ctx context.Context) (int, error) {
	return r.syncOnce(ctx)
}

// nextFrom returns the stream resume point: the label after the newest
// archived update. The from-replay is what closes the race between
// syncOnce's snapshot and the stream's server-side subscription — an
// update published in that window is replayed from the upstream
// archive, never missed. On an empty local archive it asks for
// everything (epoch 0): ingest dedupes against what syncOnce got.
func (r *Relay) nextFrom() string {
	last, ok := r.arch.Latest()
	if !ok {
		return r.sched.LabelAt(0)
	}
	t, err := r.sched.ParseLabel(last.Label)
	if err != nil {
		return r.sched.LabelAt(0)
	}
	return r.sched.LabelAt(r.sched.Index(t) + 1)
}

// Run ingests from upstream until ctx is cancelled: catch up over the
// gap (range path), then ride the upstream push stream, and on any
// disconnect back off (jittered, capped) and converge again. A relay
// never gives up — it is a daemon whose whole job is to be there when
// the upstream comes back. Against a pre-stream upstream it degrades
// to periodic catch-up polling.
func (r *Relay) Run(ctx context.Context) error {
	p := r.retry
	if p.BaseDelay <= 0 {
		p = DefaultRetry
	}
	consecutive := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		synced, serr := r.syncOnce(ctx)
		if errors.Is(serr, errResponseTooLarge) {
			// The upstream label list has outgrown the client's body cap
			// (~35 days of 1-minute epochs). The stream's from-replay
			// below fills the same gap without a list.
			r.log.Event("relay-labels-over-cap", "err", serr.Error())
			serr = nil
		}
		streamed := 0
		var err error = serr
		if serr == nil {
			_, err = r.up.StreamUpdates(ctx, r.nextFrom(), func(u core.KeyUpdate) error {
				if r.ingest(u) {
					streamed++
				}
				return nil
			})
			if errors.Is(err, ErrStreamUnsupported) {
				// Pre-stream upstream: the sync above is the whole cycle;
				// poll again after a schedule-shaped pause.
				err = nil
				if serr2 := sleepCtx(ctx, min(r.sched.Granularity/2, 5*time.Second)); serr2 != nil {
					return serr2
				}
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if synced > 0 || streamed > 0 {
			consecutive = 0
		} else {
			consecutive++
		}
		if err != nil {
			r.cReconnects.Inc()
			r.log.Event("relay-reconnect", "err", err.Error())
			if serr2 := sleepCtx(ctx, p.backoff(min(consecutive, 16))); serr2 != nil {
				return serr2
			}
		}
	}
}
