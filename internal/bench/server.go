package bench

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
)

// loadWindow is how many labels every cell pre-publishes: the rounds
// cell draws its ops from them, the relay cell converges on the newest.
const loadWindow = 64

// ServerLoadConfig controls the serving-path load harness
// (cmd/treload). The zero value selects the published-report defaults;
// Quick shrinks everything for tests.
type ServerLoadConfig struct {
	Presets      []string      // parameter sets (default Test160, SS512; Quick: Test160)
	Clients      []int         // rounds-mix concurrency levels (default 4, 16; Quick: 2, 4)
	Mixes        []string      // workload mixes (default rounds, stream, relay)
	CellDuration time.Duration // wall time per rounds cell
	// Subscribers are the concurrent-connection counts measured by the
	// stream and relay mixes (default 1000, 50000; Quick: 50). Counts
	// that do not fit the process FD limit run over an in-memory
	// transport, recorded per row.
	Subscribers []int
	// StreamPublishes is how many forward epochs each stream/relay cell
	// publishes (default 8; Quick: 4); StreamInterval is their spacing —
	// it must give the fan-out time to drain, or slow subscribers are
	// shed (which the row then reports).
	StreamPublishes int
	StreamInterval  time.Duration
	Quick           bool
}

// replacedMixes names, for every mix this harness used to run, the
// benchmark/ workload that measures the same thing now (the per-metric
// mapping is the table in docs/OBSERVABILITY.md).
var replacedMixes = map[string]string{
	"fetch":           "message-bls12381",
	"catchup":         "message-bls12381",
	"mixed":           "message-bls12381",
	"encdec":          "message-bls12381",
	"coldstart":       "coldstart-ss512",
	"coldstart-batch": "coldstart-ss512",
	"tokens":          "tokens-bls12381",
}

// checkMix refuses a mix this harness does not run, pointing a removed
// one at its replacement.
func checkMix(mix string) error {
	switch mix {
	case "rounds", "stream", "relay":
		return nil
	}
	if instead, ok := replacedMixes[mix]; ok {
		return fmt.Errorf("bench: the %q mix was removed; `bash benchmark/run.sh --workload %s` measures it now", mix, instead)
	}
	return fmt.Errorf("bench: unknown workload mix %q (want rounds, stream or relay)", mix)
}

// withDefaults fills unset fields.
func (c ServerLoadConfig) withDefaults() ServerLoadConfig {
	if len(c.Presets) == 0 {
		if c.Quick {
			c.Presets = []string{"Test160"}
		} else {
			c.Presets = []string{"Test160", "SS512"}
		}
	}
	if len(c.Clients) == 0 {
		if c.Quick {
			c.Clients = []int{2, 4}
		} else {
			c.Clients = []int{4, 16}
		}
	}
	if len(c.Mixes) == 0 {
		c.Mixes = []string{"rounds", "stream", "relay"}
	}
	if len(c.Subscribers) == 0 {
		if c.Quick {
			c.Subscribers = []int{50}
		} else {
			c.Subscribers = []int{1000, 50000}
		}
	}
	if c.StreamPublishes <= 0 {
		if c.Quick {
			c.StreamPublishes = 4
		} else {
			c.StreamPublishes = 8
		}
	}
	if c.StreamInterval <= 0 {
		if c.Quick {
			c.StreamInterval = 20 * time.Millisecond
		} else {
			c.StreamInterval = time.Second
		}
	}
	if c.CellDuration <= 0 {
		if c.Quick {
			c.CellDuration = 250 * time.Millisecond
		} else {
			c.CellDuration = 2 * time.Second
		}
	}
	return c
}

// ServerRow is one (preset, mix, concurrency) cell of the load report.
type ServerRow struct {
	Preset  string `json:"preset"`
	Mix     string `json:"mix"`
	Clients int    `json:"clients"`

	Ops        int64   `json:"ops"`
	Errors     int64   `json:"errors"`
	DurationNS int64   `json:"duration_ns"`
	RPS        float64 `json:"rps"`
	P50NS      int64   `json:"p50_ns"`
	P95NS      int64   `json:"p95_ns"`
	P99NS      int64   `json:"p99_ns"`

	// Server-side accounting for the cell.
	ServerRequests int64 `json:"server_requests"`
	Published      int64 `json:"published"`
	// Client-side pairing evaluations — the cryptographic cost the
	// passive-server design pushes to the edges.
	ClientPairings int64 `json:"client_pairings"`

	// Rounds cells only: the k-of-n shape of the measured beacon
	// network, how many quorum combines succeeded, and how many partial
	// fetches failed along the way. P50/P95/P99 are per-op
	// QuorumClient.Update latency — n concurrent partial fetches, k
	// pairing verifications, one Lagrange combine.
	Members        int   `json:"members,omitempty"`
	Quorum         int   `json:"quorum,omitempty"`
	QuorumCombines int64 `json:"quorum_combines,omitempty"`
	PartialsFailed int64 `json:"partials_failed,omitempty"`

	// Stream/relay cells only: concurrent subscriber count, the
	// transport carrying them ("tcp", or "inmem" when the count does not
	// fit the process FD limit — recorded alongside), bytes each
	// connection received, and how many slow subscribers the hub shed.
	// For these cells P50/P95/P99 are publish→delivery wakeup latency
	// and Ops counts delivered events.
	Subscribers  int     `json:"subscribers,omitempty"`
	Transport    string  `json:"transport,omitempty"`
	FDLimit      int64   `json:"fd_limit,omitempty"`
	PerConnBytes float64 `json:"per_conn_bytes,omitempty"`
	Sheds        int64   `json:"sheds,omitempty"`
}

// ServerReport is the JSON document cmd/treload writes to
// BENCH_server.json.
type ServerReport struct {
	Description string      `json:"description"`
	Rows        []ServerRow `json:"rows"`
}

// JSON renders the report with stable indentation for check-in.
func (r *ServerReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// loadTarget is the in-process origin the stream and relay cells of one
// preset attach to.
type loadTarget struct {
	set    *params.Set
	spub   core.ServerPublicKey
	sched  timefmt.Schedule
	url    string
	newest string // the last label of the pre-published window
	srv    *timeserver.Server
	close  func()

	// clockNS is the server's mutable time source: the cells publish
	// FORWARD (later labels, as a live server would) by advancing it.
	// nextFwd is the next forward epoch index.
	clockNS atomic.Int64
	nextFwd atomic.Int64
}

// advanceTo moves the mutable clock forward to at least stamp (it
// never goes backwards, so a later cell cannot re-refuse an epoch
// already reachable).
func (t *loadTarget) advanceTo(stamp time.Time) {
	ns := stamp.UnixNano()
	for {
		cur := t.clockNS.Load()
		if cur >= ns || t.clockNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// newLocalTarget boots an in-process server over real HTTP with
// loadWindow labels pre-published.
func newLocalTarget(name string) (*loadTarget, error) {
	set, err := params.Preset(name)
	if err != nil {
		return nil, err
	}
	key, err := core.NewScheme(set).ServerKeyGen(nil)
	if err != nil {
		return nil, err
	}
	sched := timefmt.MustSchedule(time.Second)
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	t := &loadTarget{set: set, spub: key.Pub, sched: sched}
	t.clockNS.Store(now.UnixNano())
	srv := timeserver.NewServer(set, key, sched,
		timeserver.WithClock(func() time.Time { return time.Unix(0, t.clockNS.Load()).UTC() }),
		timeserver.WithMetrics(obs.NewRegistry()))
	idx := sched.Index(now)
	for i := int64(loadWindow - 1); i >= 0; i-- {
		if err := srv.PublishLabel(sched.LabelAt(idx - i)); err != nil {
			return nil, fmt.Errorf("bench: pre-publishing %s: %w", sched.LabelAt(idx-i), err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.url, t.newest, t.srv, t.close = ts.URL, sched.LabelAt(idx), srv, ts.Close
	t.nextFwd.Store(idx + 1)
	return t, nil
}

// RunServerLoad runs every (preset, mix, level) cell of the mixes the
// repository benchmark does not cover (benchmark/README.md, "Not
// covered on purpose"):
//
//	rounds — Clients concurrent receivers combining 3-of-5 partial
//	         updates per op against five member servers (rounds.go)
//	stream — Subscribers concurrent /v1/stream connections parked on
//	         the origin, publish→delivery wakeup latency (stream.go)
//	relay  — the same behind a stateless fan-out relay
//
// The serving and crypto paths a single receiver waits on — fetch,
// catch-up, seal/open, cold start, tokens — are measured by benchmark/
// with a pinned cache state and an environment header; asking for one
// of those mixes here is an error naming the workload.
func RunServerLoad(cfg ServerLoadConfig) (*ServerReport, *Table, error) {
	cfg = cfg.withDefaults()
	for _, mix := range cfg.Mixes {
		if err := checkMix(mix); err != nil {
			return nil, nil, err
		}
	}
	rep := &ServerReport{
		Description: "serving-path cells benchmark/ does not cover: 3-of-5 beacon quorum rounds (closed loop, N verifying receivers) and /v1/stream fan-out on an origin and behind a relay; latencies are per-operation (rounds) or publish→delivery (stream, relay), RPS is completed operations per second",
	}
	table := &Table{
		ID:    "SERVER",
		Title: "Serving-path load: quorum rounds and broadcast fan-out",
		Claim: "one passive broadcast serves all users (§3): fan-out cost is per connection, and the k-of-n availability upgrade is paid by the receiver",
		Columns: []string{
			"params/mix", "clients", "rps", "p50", "p95", "p99", "ops", "errs",
		},
	}
	add := func(cell string, level int, row ServerRow) {
		rep.Rows = append(rep.Rows, row)
		table.Add(cell, fmt.Sprintf("%d", level), fmt.Sprintf("%.0f", row.RPS),
			nsHuman(row.P50NS), nsHuman(row.P95NS), nsHuman(row.P99NS),
			fmt.Sprintf("%d", row.Ops), fmt.Sprintf("%d", row.Errors))
	}

	for _, preset := range cfg.Presets {
		var target *loadTarget // booted by the first stream/relay cell
		for _, mix := range cfg.Mixes {
			if mix == "rounds" {
				for _, clients := range cfg.Clients {
					row, err := runRounds(preset, clients, cfg)
					if err != nil {
						return nil, nil, err
					}
					add(fmt.Sprintf("%s/rounds:%d-of-%d", row.Preset, row.Quorum, row.Members), clients, row)
				}
				continue
			}
			if target == nil {
				t, err := newLocalTarget(preset)
				if err != nil {
					return nil, nil, err
				}
				defer t.close()
				target = t
			}
			for _, subs := range cfg.Subscribers {
				row, err := runStream(target, mix, subs, cfg)
				if err != nil {
					return nil, nil, err
				}
				add(fmt.Sprintf("%s/%s:%d[%s]", row.Preset, mix, subs, row.Transport), subs, row)
			}
		}
	}
	table.Note("rounds:k-of-n = quorum-combine latency on a threshold beacon network: each op fetches partial updates from n member servers concurrently and Lagrange-combines the first k that verify; receivers pin the group key, share one core.Scheme and run with the client-side cache disabled")
	table.Note("stream:N / relay:N = N concurrent /v1/stream subscribers (relay: behind a stateless fan-out relay) receiving %d forward publishes; p50/p95/p99 are publish→delivery wakeup latency; [inmem] marks counts beyond the FD limit driven over an in-memory transport", cfg.StreamPublishes)
	return rep, table, nil
}

// pct picks an exact percentile from sorted samples (nearest-rank).
func pct(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// nsHuman renders nanoseconds with an adaptive unit.
func nsHuman(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2f s", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1f µs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}
