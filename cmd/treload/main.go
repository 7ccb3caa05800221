// Command treload runs the serving-path cells the repository benchmark
// (benchmark/) does not cover — 3-of-5 beacon quorum rounds and
// /v1/stream fan-out on an origin and behind a relay — and reports
// sustained RPS plus p50/p95/p99 latency per cell.
//
//	treload -out BENCH_server.json             # full sweep: rounds, stream, relay
//	treload -quick                             # fast reduced sweep (Test160)
//	treload -mixes rounds -clients 8,32        # quorum cells only
//	treload -mixes stream,relay -subscribers 1000,50000   # fan-out cells
//	treload -merge -out BENCH_server.json      # update matching rows in place
//	treload -duration 5s -markdown
//	treload -mutexprofile mutex.pb.gz          # lock-contention profile of the run
//	treload -blockprofile block.pb.gz          # blocking profile of the run
//
// Every cell boots its servers in-process over real HTTP (httptest).
// Fetch, catch-up, seal/open, cold-start and token latencies are
// `bash benchmark/run.sh` workloads; their old mix names and the flags
// only they read (-url, -coldstart) are errors naming the workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"timedrelease/internal/bench"
)

// options is the parsed command line.
type options struct {
	cfg      bench.ServerLoadConfig
	out      string
	markdown bool

	// merge folds this run's rows into an existing -out report instead
	// of overwriting it: rows with the same cell identity (preset, mix,
	// clients, subscribers) are replaced, everything else is
	// kept. Lets the cheap nightly stream sweep refresh its rows without
	// discarding the full-sweep rows (and vice versa).
	merge bool

	// mutexProfile/blockProfile are output paths for opt-in contention
	// profiling of the whole sweep; empty disables the (costly)
	// instrumentation entirely.
	mutexProfile string
	blockProfile string
}

// removedFlags names, for each flag only a removed mix read, what
// measures the same thing now.
var removedFlags = map[string]string{
	"url":       "the fetch/catchup/mixed mixes it aimed at a remote server are `bash benchmark/run.sh --workload message-bls12381`; to poke a running treserver use curl or trectl",
	"coldstart": "the coldstart mixes are `bash benchmark/run.sh --workload coldstart-ss512`",
}

// parseFlags parses args (not including the program name) without
// touching global flag state, so tests can exercise it directly.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	for _, a := range args {
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if instead, ok := removedFlags[name]; ok && strings.HasPrefix(a, "-") {
			err := fmt.Errorf("-%s was removed: %s", name, instead)
			fmt.Fprintln(stderr, "treload:", err)
			return nil, err
		}
	}
	fs := flag.NewFlagSet("treload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opts        options
		presets     string
		clients     string
		mixes       string
		subscribers string
		duration    time.Duration
	)
	fs.StringVar(&opts.out, "out", "", "write the JSON report to this file")
	fs.BoolVar(&opts.markdown, "markdown", false, "emit GitHub-flavoured markdown")
	fs.BoolVar(&opts.cfg.Quick, "quick", false, "reduced sweep (Test160, short cells)")
	fs.StringVar(&presets, "preset", "", "comma-separated parameter presets (default Test160,SS512)")
	fs.StringVar(&clients, "clients", "", "comma-separated concurrency levels for the rounds mix (default 4,16)")
	fs.StringVar(&mixes, "mixes", "", "comma-separated workload mixes (default rounds,stream,relay)")
	fs.StringVar(&subscribers, "subscribers", "", "comma-separated subscriber counts for the stream/relay mixes (default 1000,50000)")
	fs.BoolVar(&opts.merge, "merge", false, "merge rows into an existing -out report instead of overwriting it")
	fs.DurationVar(&duration, "duration", 0, "wall time per rounds cell (default 2s, 250ms with -quick)")
	fs.StringVar(&opts.mutexProfile, "mutexprofile", "", "write a mutex-contention profile of the sweep to this file")
	fs.StringVar(&opts.blockProfile, "blockprofile", "", "write a goroutine-blocking profile of the sweep to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	opts.cfg.CellDuration = duration
	opts.cfg.Presets = splitList(presets)
	opts.cfg.Mixes = splitList(mixes)
	for _, c := range splitList(clients) {
		n, err := strconv.Atoi(c)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -clients value %q: want positive integers", c)
		}
		opts.cfg.Clients = append(opts.cfg.Clients, n)
	}
	for _, s := range splitList(subscribers) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -subscribers value %q: want positive integers", s)
		}
		opts.cfg.Subscribers = append(opts.cfg.Subscribers, n)
	}
	if opts.merge && opts.out == "" {
		return nil, fmt.Errorf("-merge requires -out")
	}
	return &opts, nil
}

// splitList turns "a,b , c" into {"a","b","c"} and "" into nil.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "treload:", err)
		os.Exit(1)
	}
}

// run executes the sweep, prints the table to stdout and writes the
// JSON report when -out is set.
func run(opts *options, stdout, stderr io.Writer) error {
	if opts.mutexProfile != "" {
		// Sample every contended mutex acquisition for the whole sweep.
		runtime.SetMutexProfileFraction(1)
		defer runtime.SetMutexProfileFraction(0)
	}
	if opts.blockProfile != "" {
		// Record every blocking event (channel waits, lock waits).
		runtime.SetBlockProfileRate(1)
		defer runtime.SetBlockProfileRate(0)
	}

	start := time.Now()
	rep, table, err := bench.RunServerLoad(opts.cfg)
	if err != nil {
		return err
	}

	if err := writeProfile("mutex", opts.mutexProfile); err != nil {
		return err
	}
	if err := writeProfile("block", opts.blockProfile); err != nil {
		return err
	}
	if opts.out != "" {
		if opts.merge {
			if err := mergeReport(rep, opts.out); err != nil {
				return err
			}
		}
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.out, out, 0o644); err != nil {
			return err
		}
	}
	if opts.markdown {
		fmt.Fprint(stdout, table.Markdown())
	} else {
		fmt.Fprint(stdout, table.String())
	}
	fmt.Fprintf(stderr, "\ntreload: %d cell(s) in %v", len(rep.Rows), time.Since(start).Round(time.Millisecond))
	if opts.out != "" {
		fmt.Fprintf(stderr, ", report written to %s", opts.out)
	}
	fmt.Fprintln(stderr)
	return nil
}

// cellKey identifies one bench cell for -merge: two rows with the same
// key describe the same measurement and the fresh one wins.
func cellKey(r bench.ServerRow) string {
	return fmt.Sprintf("%s/%s/c%d/s%d", r.Preset, r.Mix, r.Clients, r.Subscribers)
}

// mergeReport prepends the rows of an existing report at path that this
// run did not re-measure, keeping their original order. A missing file
// degrades to a plain write; a corrupt one is an error (refuse to
// silently discard checked-in numbers).
func mergeReport(rep *bench.ServerReport, path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var old bench.ServerReport
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("cannot merge into %s: %w", path, err)
	}
	fresh := make(map[string]bool, len(rep.Rows))
	for _, r := range rep.Rows {
		fresh[cellKey(r)] = true
	}
	var kept []bench.ServerRow
	for _, r := range old.Rows {
		if !fresh[cellKey(r)] {
			kept = append(kept, r)
		}
	}
	rep.Rows = append(kept, rep.Rows...)
	return nil
}

// writeProfile dumps the named runtime profile (pprof format) to path;
// an empty path is a no-op.
func writeProfile(name, path string) error {
	if path == "" {
		return nil
	}
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("unknown runtime profile %q", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
