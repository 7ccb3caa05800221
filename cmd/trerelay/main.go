// Command trerelay runs a stateless fan-out relay: it subscribes to an
// upstream time server (or another relay) over /v1/stream, verifies
// every key update once against the server's public key, and re-serves
// the full public HTTP surface — /v1/stream, /v1/wait, /v1/update,
// /v1/catchup and the bootstrap routes — to downstream consumers.
//
//	trerelay -upstream http://origin:8440 -addr :8441 -metrics
//
// Relays hold NO secret material. Because updates self-authenticate
// via the pairing check ê(sG, H1(T)) = ê(G, I_T), a relay (even a
// compromised one) can only withhold updates, never forge them, so
// fan-out capacity scales horizontally without widening the trust
// base: downstream clients keep verifying against the origin key,
// which the relay fetches at startup and prints as a fingerprint for
// out-of-band comparison (or pins from a previous run via -pin).
//
// The relay reconnects forever: on an upstream outage it backs off,
// converges over the gap with one range catch-up request, and
// resumes streaming. Downstream service continues from the local
// archive throughout.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"timedrelease/internal/timeserver"
	"timedrelease/tre"
)

// config is the parsed command line.
type config struct {
	upstream   string
	addr       string
	metrics    bool
	pinPath    string
	headerWait time.Duration

	// onReady, when set (tests), receives the bound listen address once
	// the HTTP listener is up.
	onReady func(addr string)
}

// parseFlags parses args (not including the program name) into a
// config without touching global flag state, so tests can exercise it
// directly.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("trerelay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.upstream, "upstream", "", "upstream server or relay base URL (required)")
	fs.StringVar(&cfg.addr, "addr", ":8441", "downstream listen address")
	fs.BoolVar(&cfg.metrics, "metrics", false, "serve /metrics (JSON), log ingest events")
	fs.StringVar(&cfg.pinPath, "pin", "", "file holding the expected server key fingerprint (created if missing)")
	fs.DurationVar(&cfg.headerWait, "read-header-timeout", timeserver.DefaultReadHeaderTimeout,
		"max time to wait for a request header (slowloris guard)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.upstream == "" {
		return nil, errors.New("-upstream is required")
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
		fmt.Fprintln(os.Stderr, "trerelay:", err)
		os.Exit(1)
	}
}

// keyFingerprint is a short stable digest of the upstream server public
// key, printed for out-of-band comparison and optionally pinned across
// restarts with -pin.
func keyFingerprint(set *tre.Params, spub tre.ServerPublicKey) string {
	sum := sha256.Sum256(tre.NewCodec(set).MarshalServerPublicKey(spub))
	return hex.EncodeToString(sum[:8])
}

// checkPin compares the upstream key fingerprint against the pin file,
// creating the file on first use (trust on first use; authenticate the
// printed fingerprint out of band for a stronger anchor).
func checkPin(path, fp string, stdout io.Writer) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(path, []byte(fp+"\n"), 0o600); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trerelay: pinned server key fingerprint %s in %s\n", fp, path)
		return nil
	}
	if err != nil {
		return err
	}
	want := string(raw)
	for len(want) > 0 && (want[len(want)-1] == '\n' || want[len(want)-1] == '\r') {
		want = want[:len(want)-1]
	}
	if want != fp {
		return fmt.Errorf("server key fingerprint %s does not match pinned %s (from %s): refusing to relay", fp, want, path)
	}
	return nil
}

// run builds and serves the relay until ctx is cancelled, then shuts
// down gracefully. It returns nil on a clean shutdown.
func run(ctx context.Context, cfg *config, stdout io.Writer) error {
	// Bootstrap from upstream: parameter set, server public key and
	// schedule all come from the origin — a relay adds nothing.
	bctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	set, spub, sched, err := tre.FetchBootstrap(bctx, cfg.upstream, nil)
	cancel()
	if err != nil {
		return fmt.Errorf("bootstrap from %s: %w", cfg.upstream, err)
	}
	fp := keyFingerprint(set, spub)
	fmt.Fprintf(stdout, "trerelay: upstream %s, %s params, server key fingerprint %s\n", cfg.upstream, set.Name, fp)
	if cfg.pinPath != "" {
		if err := checkPin(cfg.pinPath, fp, stdout); err != nil {
			return err
		}
	}

	clientOpts := []timeserver.ClientOption{}
	relayOpts := []timeserver.RelayOption{}
	var metrics *tre.Metrics
	if cfg.metrics {
		metrics = tre.NewMetrics()
		clientOpts = append(clientOpts, tre.WithClientMetrics(metrics))
		relayOpts = append(relayOpts,
			tre.RelayWithMetrics(metrics),
			tre.RelayWithLogger(tre.NewEventLogger(stdout)))
	}
	up := tre.NewTimeClient(cfg.upstream, set, spub, clientOpts...)
	relay := tre.NewRelay(up, sched, relayOpts...)

	handler := http.Handler(relay.Handler())
	if cfg.metrics {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("GET /metrics", metrics.Handler())
		handler = mux
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpServer := timeserver.NewHTTPServer(handler, cfg.headerWait)

	fmt.Fprintf(stdout, "trerelay: listening on %s\n", ln.Addr())
	if cfg.onReady != nil {
		cfg.onReady(ln.Addr().String())
	}

	return timeserver.ServeAndDrain(ctx, ln, httpServer, relay, func() {
		fmt.Fprintln(stdout, "trerelay: shutting down")
	})
}
