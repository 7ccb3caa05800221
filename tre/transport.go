package tre

import (
	"context"
	"io"
	"net/http"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/obs"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/wire"
)

// Observability (see docs/OBSERVABILITY.md).
type (
	// Metrics is a registry of counters, gauges and latency histograms;
	// its Handler serves the /metrics JSON snapshot.
	Metrics = obs.Registry
	// EventLogger emits structured one-line JSON events.
	EventLogger = obs.Logger
)

// NewMetrics returns an empty metric registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewEventLogger returns a logger writing JSON event lines to w.
func NewEventLogger(w io.Writer) *EventLogger { return obs.NewLogger(w) }

// Time labels and schedules.
type (
	// Schedule carves time into fixed-width epochs with canonical
	// RFC 3339 labels.
	Schedule = timefmt.Schedule
)

// NewSchedule returns a schedule with the given epoch width (must
// divide 24h).
func NewSchedule(granularity time.Duration) (Schedule, error) {
	return timefmt.NewSchedule(granularity)
}

// MustSchedule is NewSchedule for known-good constants.
func MustSchedule(granularity time.Duration) Schedule {
	return timefmt.MustSchedule(granularity)
}

// The passive time server and its verifying client.
type (
	// TimeServer publishes one self-authenticating update per epoch and
	// keeps the public archive; request handling cannot reach the signing
	// key.
	TimeServer = timeserver.Server
	// TimeClient fetches updates and verifies every one against a pinned
	// server key before use.
	TimeClient = timeserver.Client
	// Archive stores published updates (see NewMemoryArchive /
	// OpenDirArchive).
	Archive = archive.Archive
	// DurableArchive is the disk-backed archive: an append-only,
	// checksummed log that survives restarts; recovery truncates torn
	// tails and re-verifies every update against the server key.
	DurableArchive = archive.Log
	// RecoverStats describes what durable-archive recovery found and
	// repaired.
	RecoverStats = archive.RecoverStats
	// ArchiveAuditReport is the outcome of an offline archive replay
	// (trectl archive verify).
	ArchiveAuditReport = archive.AuditReport
)

// Time-server errors.
var (
	ErrNotYetPublished = timeserver.ErrNotYetPublished
	ErrBadUpdate       = timeserver.ErrBadUpdate
	ErrFutureLabel     = timeserver.ErrFutureLabel
)

// PartialError reports a degraded CatchUp: the verified updates were
// returned, and this error names the labels that could not be fetched
// (errors.As to read them; errors.Is sees through to the per-label
// causes).
type PartialError = timeserver.PartialError

// RetryPolicy governs the client's transport-level retries (capped
// exponential backoff with jitter, per-attempt timeouts).
type RetryPolicy = timeserver.RetryPolicy

// Retry policies: the client uses DefaultRetry unless WithRetry says
// otherwise; NoRetry fails fast.
var (
	DefaultRetry = timeserver.DefaultRetry
	NoRetry      = timeserver.NoRetry
)

// WithRetry substitutes the client's retry policy.
func WithRetry(p RetryPolicy) timeserver.ClientOption { return timeserver.WithRetry(p) }

// NewTimeServer creates a passive time server.
func NewTimeServer(set *Params, key *ServerKeyPair, sched Schedule, opts ...timeserver.Option) *TimeServer {
	return timeserver.NewServer(set, key, sched, opts...)
}

// WithArchive substitutes the server's update archive.
func WithArchive(a Archive) timeserver.Option { return timeserver.WithArchive(a) }

// WithClock substitutes the server's time source (tests, simulations).
func WithClock(clock func() time.Time) timeserver.Option { return timeserver.WithClock(clock) }

// WithMetrics instruments the server against a metric registry.
func WithMetrics(m *Metrics) timeserver.Option { return timeserver.WithMetrics(m) }

// WithLogger emits the server's structured events to l.
func WithLogger(l *EventLogger) timeserver.Option { return timeserver.WithLogger(l) }

// Relay is a stateless fan-out node: it subscribes to an upstream
// server (or relay) through a verifying TimeClient, checks each update
// once against the pinned server key, and re-serves the identical
// public HTTP surface downstream. It holds no secret material — a
// relay can withhold updates but never forge one, because updates are
// self-authenticating.
type Relay = timeserver.Relay

// NewRelay builds a relay over an upstream verifying client; the
// client's pinned key is the relay's trust anchor.
func NewRelay(upstream *TimeClient, sched Schedule, opts ...timeserver.RelayOption) *Relay {
	return timeserver.NewRelay(upstream, sched, opts...)
}

// RelayWithArchive substitutes the relay's local update store.
func RelayWithArchive(a Archive) timeserver.RelayOption { return timeserver.RelayWithArchive(a) }

// RelayWithMetrics instruments the relay against a metric registry.
func RelayWithMetrics(m *Metrics) timeserver.RelayOption { return timeserver.RelayWithMetrics(m) }

// RelayWithLogger emits the relay's structured events to l.
func RelayWithLogger(l *EventLogger) timeserver.RelayOption { return timeserver.RelayWithLogger(l) }

// NewHTTPServer wraps a handler in an http.Server with production
// limits (header-read timeout, idle timeout, header size cap) suited
// to the long-lived /v1/wait and /v1/stream connections.
func NewHTTPServer(h http.Handler, readHeaderTimeout time.Duration) *http.Server {
	return timeserver.NewHTTPServer(h, readHeaderTimeout)
}

// TimeClientOption configures NewTimeClient (WithHTTPClient,
// WithClientMetrics, WithoutCache, WithRetry, WithTokenWallet, ...).
type TimeClientOption = timeserver.ClientOption

// NewTimeClient creates a client pinned to the given server public key.
func NewTimeClient(baseURL string, set *Params, spub ServerPublicKey, opts ...TimeClientOption) *TimeClient {
	return timeserver.NewClient(baseURL, set, spub, opts...)
}

// WithHTTPClient substitutes the client's HTTP transport.
func WithHTTPClient(h *http.Client) timeserver.ClientOption {
	return timeserver.WithHTTPClient(h)
}

// WithClientMetrics instruments the client against a metric registry.
func WithClientMetrics(m *Metrics) timeserver.ClientOption {
	return timeserver.WithClientMetrics(m)
}

// WithoutCache disables the client's verified-update cache (every
// fetch hits the network and re-verifies).
func WithoutCache() timeserver.ClientOption { return timeserver.WithoutCache() }

// FetchBootstrap retrieves (params, server key, schedule) for first-time
// setup; authenticate the key out of band before pinning.
func FetchBootstrap(ctx context.Context, baseURL string, h *http.Client) (*Params, ServerPublicKey, Schedule, error) {
	return timeserver.FetchBootstrap(ctx, baseURL, h)
}

// NewMemoryArchive returns an in-memory update archive.
func NewMemoryArchive() Archive { return archive.NewMemory() }

// OpenDirArchive opens (or creates) the durable archive in dir and
// recovers it: torn tails (crash mid-append) are truncated away and,
// when verify is non-nil, every replayed update is re-checked against
// the server key before it is served. Recovery details are available
// via the returned archive's Stats.
func OpenDirArchive(dir string, set *Params, verify func(KeyUpdate) bool) (*DurableArchive, error) {
	var opts []archive.LogOption
	if verify != nil {
		opts = append(opts, archive.WithVerifier(verify))
	}
	return archive.OpenDir(dir, wire.NewCodec(set), opts...)
}

// AuditArchiveDir replays the log in dir offline (read-only),
// classifying every record as intact, torn or invalid. verify may be
// nil to run structural checks only.
func AuditArchiveDir(dir string, set *Params, verify func(KeyUpdate) bool) (ArchiveAuditReport, error) {
	return archive.AuditDir(dir, wire.NewCodec(set), verify)
}

// Wire encodings.
type (
	// Codec marshals keys, updates, ciphertexts and envelopes.
	Codec = wire.Codec
	// Envelope is the application-level message wrapper (optional label +
	// ciphertext payload).
	Envelope = wire.Envelope
	// EnvelopeKind tags the ciphertext variant inside an envelope.
	EnvelopeKind = wire.Kind
)

// Envelope kinds.
const (
	KindBasic  = wire.KindBasic
	KindCCA    = wire.KindCCA
	KindREACT  = wire.KindREACT
	KindHybrid = wire.KindHybrid
)

// NewCodec returns a codec for the parameter set.
func NewCodec(set *Params) *Codec { return wire.NewCodec(set) }
