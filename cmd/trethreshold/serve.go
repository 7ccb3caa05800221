package main

// The serve subcommand runs one threshold member as a network time
// server. A member is an ordinary passive server over its share key
// (s_i · H1(T) per epoch); nothing threshold-specific happens online —
// clients gather any k member updates and interpolate.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"time"

	"timedrelease/internal/keyfile"
	"timedrelease/internal/timeserver"
	"timedrelease/tre"
)

// serveConfig is the parsed `serve` command line.
type serveConfig struct {
	preset      string
	addr        string
	sharePath   string
	granularity time.Duration
	archDir     string
	headerWait  time.Duration

	// onReady, when set (tests), receives the bound listen address
	// once the HTTP listener is up.
	onReady func(addr string)
}

// parseServeFlags parses args (not including "serve") into a config
// without touching global flag state, so tests can exercise it
// directly.
func parseServeFlags(args []string, stderr io.Writer) (*serveConfig, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &serveConfig{}
	fs.StringVar(&cfg.preset, "preset", "SS512", "parameter preset")
	fs.StringVar(&cfg.addr, "addr", ":8441", "listen address")
	fs.StringVar(&cfg.sharePath, "share", "", "this member's share file (from deal)")
	fs.DurationVar(&cfg.granularity, "granularity", time.Minute, "epoch width (must divide 24h)")
	fs.StringVar(&cfg.archDir, "archive-dir", "", "durable archive directory (in-memory if empty)")
	fs.DurationVar(&cfg.headerWait, "read-header-timeout", timeserver.DefaultReadHeaderTimeout,
		"max time to wait for a request header (slowloris guard)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.sharePath == "" {
		return nil, fmt.Errorf("-share is required")
	}
	return cfg, nil
}

// runServe serves one member until ctx is cancelled, then shuts the
// HTTP server down gracefully. It returns nil on a clean shutdown.
func runServe(ctx context.Context, cfg *serveConfig, stdout io.Writer) error {
	set, err := tre.Preset(cfg.preset)
	if err != nil {
		return err
	}
	sched, err := tre.NewSchedule(cfg.granularity)
	if err != nil {
		return err
	}
	loaded, err := keyfile.LoadShare(cfg.sharePath, set)
	if err != nil {
		return err
	}
	key := tre.ShardServerKey(set, loaded.Share)

	srvOpts := make([]timeserver.Option, 0, 1)
	if cfg.archDir != "" {
		// Same crash-recovery contract as treserver: replayed updates are
		// re-verified against this member's key, torn tails truncated.
		scheme := tre.NewScheme(set)
		arch, err := tre.OpenDirArchive(cfg.archDir, set, func(u tre.KeyUpdate) bool {
			return scheme.VerifyUpdate(key.Pub, u)
		})
		if err != nil {
			return err
		}
		defer arch.Close()
		stats := arch.Stats()
		fmt.Fprintf(stdout, "trethreshold: member %d recovered %d updates from %s (torn tail: %d bytes dropped)\n",
			loaded.Share.Index, stats.Records, cfg.archDir, stats.TornBytes)
		srvOpts = append(srvOpts, tre.WithArchive(arch))
	}
	srv := tre.NewTimeServer(set, key, sched, srvOpts...)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpServer := timeserver.NewHTTPServer(srv.Handler(), cfg.headerWait)

	fmt.Fprintf(stdout, "trethreshold: member %d of %d-of-%d group, %s params, %v epochs, listening on %s\n",
		loaded.Share.Index, loaded.K, loaded.N, set.Name, cfg.granularity, ln.Addr())
	if cfg.onReady != nil {
		cfg.onReady(ln.Addr().String())
	}

	return timeserver.ServeAndDrain(ctx, ln, httpServer, srv, func() {
		fmt.Fprintf(stdout, "trethreshold: member %d shutting down\n", loaded.Share.Index)
	})
}
