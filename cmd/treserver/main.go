// Command treserver runs a passive time server: it signs and publishes
// one self-authenticating key update per epoch and serves the public
// archive over HTTP. It never interacts with senders or receivers and
// keeps no per-user state.
//
//	treserver -preset SS512 -addr :8440 -granularity 1m \
//	          -key server.key -archive-dir ./archive -metrics
//
// On first run with a missing key file, a fresh server key is generated
// and saved. The archive directory holds an append-only, checksummed
// log of published updates that survives restarts and crashes: on
// startup the log is recovered (torn tails from a crash mid-append are
// truncated, every surviving update is re-verified against the server
// key) and missed epochs are backfilled.
//
// With -metrics the server additionally serves /metrics (a JSON
// snapshot of request, publish, cache and pairing counters — see
// docs/OBSERVABILITY.md) and the net/http/pprof profiling endpoints
// under /debug/pprof/, and emits structured JSON events (one line per
// publish) on stdout. Both expose only aggregate server-side state,
// never anything about requesters; leave the flag off to serve the
// paper's minimal surface.
//
// With -require-tokens the server blind-signs anonymous access tokens
// (POST /v1/tokens/issue, under a dedicated -token-key) and demands
// one unspent token per /v1/catchup and /v1/stream request. Spent
// tokens persist in <archive-dir>/spend.log so a restart cannot be
// used to replay them; see docs/TOKENS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"timedrelease/internal/keyfile"
	"timedrelease/internal/timeserver"
	"timedrelease/tre"
)

// config is the parsed command line.
type config struct {
	preset      string
	backend     string
	addr        string
	granularity time.Duration
	keyPath     string
	archDir     string
	metrics     bool
	headerWait  time.Duration

	requireTokens bool
	tokenKeyPath  string

	// onReady, when set (tests), receives the bound listen address
	// once the HTTP listener is up.
	onReady func(addr string)
}

// parseFlags parses args (not including the program name) into a
// config without touching global flag state, so tests can exercise it
// directly.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("treserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.preset, "preset", "SS512", "parameter preset")
	fs.StringVar(&cfg.backend, "backend", "", "pairing backend: symmetric (default) or bls12381")
	fs.StringVar(&cfg.addr, "addr", ":8440", "listen address")
	fs.DurationVar(&cfg.granularity, "granularity", time.Minute, "epoch width (must divide 24h)")
	fs.StringVar(&cfg.keyPath, "key", "treserver.key", "server key file (created if missing)")
	fs.StringVar(&cfg.archDir, "archive-dir", "", "durable archive directory (in-memory if empty)")
	fs.BoolVar(&cfg.metrics, "metrics", false, "serve /metrics (JSON) and /debug/pprof, log publish events")
	fs.DurationVar(&cfg.headerWait, "read-header-timeout", timeserver.DefaultReadHeaderTimeout,
		"max time to wait for a request header (slowloris guard)")
	fs.BoolVar(&cfg.requireTokens, "require-tokens", false,
		"gate /v1/catchup and /v1/stream behind anonymous access tokens (docs/TOKENS.md)")
	fs.StringVar(&cfg.tokenKeyPath, "token-key", "treserver-token.key",
		"token issuance key file, created if missing (only with -require-tokens)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "treserver:", err)
		os.Exit(1)
	}
}

// run builds and serves the time server until ctx is cancelled, then
// shuts the HTTP server down gracefully. It returns nil on a clean
// shutdown.
func run(ctx context.Context, cfg *config, stdout io.Writer) error {
	set, err := tre.ResolvePreset(cfg.preset, cfg.backend)
	if err != nil {
		return err
	}
	sched, err := tre.NewSchedule(cfg.granularity)
	if err != nil {
		return err
	}
	key, err := loadOrCreateKey(cfg.keyPath, set, stdout)
	if err != nil {
		return err
	}

	var metrics *tre.Metrics
	srvOpts := make([]timeserver.Option, 0, 3)
	if cfg.metrics {
		metrics = tre.NewMetrics()
		srvOpts = append(srvOpts, tre.WithMetrics(metrics), tre.WithLogger(tre.NewEventLogger(stdout)))
	}
	if cfg.archDir != "" {
		// Recovery re-verifies every replayed update against (G, sG):
		// a torn tail (crash mid-append) is truncated and reported; a
		// record failing the pairing check refuses to start the server.
		scheme := tre.NewScheme(set)
		arch, err := tre.OpenDirArchive(cfg.archDir, set, func(u tre.KeyUpdate) bool {
			return scheme.VerifyUpdate(key.Pub, u)
		})
		if err != nil {
			return err
		}
		defer arch.Close()
		stats := arch.Stats()
		fmt.Fprintf(stdout, "treserver: recovered %d updates from %s in %v (torn tail: %d bytes dropped)\n",
			stats.Records, cfg.archDir, stats.Elapsed.Round(time.Microsecond), stats.TornBytes)
		if metrics != nil {
			metrics.Histogram("timeserver.recover_ns").ObserveNS(stats.Elapsed.Nanoseconds())
			metrics.Counter("timeserver.recovered_updates").Add(int64(stats.Records))
			metrics.Counter("timeserver.recovered_torn_bytes").Add(stats.TornBytes)
		}
		srvOpts = append(srvOpts, tre.WithArchive(arch))
	}
	if cfg.requireTokens {
		// The issuance key is a DEDICATED key pair: blind-signing with
		// the timed-release key would let anyone mint future updates
		// (docs/TOKENS.md). Refuse to start on a shared key rather than
		// rely on the server constructor's panic.
		tkey, err := loadOrCreateKey(cfg.tokenKeyPath, set, stdout)
		if err != nil {
			return fmt.Errorf("token issuance key: %w", err)
		}
		if tkey.S.Cmp(key.S) == 0 {
			return fmt.Errorf("token issuance key %s equals the server key %s; delete it to generate a fresh one",
				cfg.tokenKeyPath, cfg.keyPath)
		}
		iss, err := tre.TokenIssuerFromKey(set, tkey)
		if err != nil {
			return err
		}
		var led *tre.TokenLedger
		if cfg.archDir != "" {
			var lstats tre.TokenLedgerStats
			led, lstats, err = tre.OpenTokenLedger(cfg.archDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "treserver: recovered %d spent tokens from %s (torn tail: %d bytes dropped)\n",
				lstats.Spent, cfg.archDir, lstats.TornBytes)
		} else {
			led = tre.NewTokenLedger()
			fmt.Fprintln(stdout, "treserver: WARNING: -require-tokens without -archive-dir; the double-spend ledger is in-memory and resets on restart")
		}
		defer led.Close()
		srvOpts = append(srvOpts,
			tre.WithTokenIssuer(iss),
			tre.WithTokenGate(tre.NewTokenVerifier(set, iss.Public(), led)))
	}
	srv := tre.NewTimeServer(set, key, sched, srvOpts...)

	handler := http.Handler(srv.Handler())
	if cfg.metrics {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("GET /metrics", metrics.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Production limits (header-read timeout, idle timeout, header size
	// cap) and the serve/drain/shutdown lifecycle come from one place so
	// the relay and threshold daemons behave the same; see
	// timeserver.NewHTTPServer for why there is no overall write timeout
	// (streams and long-polls are long-lived).
	httpServer := timeserver.NewHTTPServer(handler, cfg.headerWait)

	extras := ""
	if cfg.metrics {
		extras = ", /metrics and /debug/pprof enabled"
	}
	fmt.Fprintf(stdout, "treserver: %s params, %v epochs, listening on %s%s\n",
		set.Name, cfg.granularity, ln.Addr(), extras)
	if cfg.onReady != nil {
		cfg.onReady(ln.Addr().String())
	}

	return timeserver.ServeAndDrain(ctx, ln, httpServer, srv, func() {
		fmt.Fprintln(stdout, "treserver: shutting down")
	})
}

func loadOrCreateKey(path string, set *tre.Params, stdout io.Writer) (*tre.ServerKeyPair, error) {
	if _, err := os.Stat(path); err == nil {
		key, err := keyfile.LoadServerKey(path, set)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "treserver: loaded key from %s\n", path)
		return key, nil
	}
	key, err := tre.NewScheme(set).ServerKeyGen(nil)
	if err != nil {
		return nil, err
	}
	if err := keyfile.SaveServerKey(path, set, key); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "treserver: generated new key in %s\n", path)
	return key, nil
}
