package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timedrelease/internal/bench"
)

func TestParseFlagsDefaults(t *testing.T) {
	opts, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.out != "" || opts.markdown || opts.cfg.Quick {
		t.Fatalf("wrong defaults: %+v", opts)
	}
	if opts.cfg.Presets != nil || opts.cfg.Clients != nil || opts.cfg.Mixes != nil {
		t.Fatalf("sweep lists must stay unset for bench defaults: %+v", opts.cfg)
	}
	// The bench defaults an unset -mixes resolves to are exactly the
	// three mixes benchmark/ does not cover, and -help says so.
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h must stop parsing")
	}
	if !strings.Contains(usage.String(), "default rounds,stream,relay") {
		t.Fatalf("-mixes help does not name the default mixes:\n%s", usage.String())
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	opts, err := parseFlags([]string{
		"-out", "x.json", "-quick", "-markdown",
		"-preset", "Test160, SS512", "-clients", "2,8", "-mixes", "rounds,relay",
		"-duration", "100ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.out != "x.json" || !opts.cfg.Quick || !opts.markdown {
		t.Fatalf("overrides not applied: %+v", opts)
	}
	if len(opts.cfg.Presets) != 2 || opts.cfg.Presets[1] != "SS512" {
		t.Fatalf("presets = %v", opts.cfg.Presets)
	}
	if len(opts.cfg.Clients) != 2 || opts.cfg.Clients[0] != 2 || opts.cfg.Clients[1] != 8 {
		t.Fatalf("clients = %v", opts.cfg.Clients)
	}
	if len(opts.cfg.Mixes) != 2 || opts.cfg.CellDuration != 100*time.Millisecond {
		t.Fatalf("mixes/duration = %v/%v", opts.cfg.Mixes, opts.cfg.CellDuration)
	}
}

func TestParseFlagsProfiles(t *testing.T) {
	opts, err := parseFlags([]string{
		"-mutexprofile", "m.pb.gz", "-blockprofile", "b.pb.gz",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.mutexProfile != "m.pb.gz" || opts.blockProfile != "b.pb.gz" {
		t.Fatalf("profile paths not applied: %+v", opts)
	}
	opts, err = parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.mutexProfile != "" || opts.blockProfile != "" {
		t.Fatalf("profiling must default off: %+v", opts)
	}
}

// TestRunWritesProfiles runs a tiny sweep with contention profiling on
// and checks both pprof documents appear.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	mp := filepath.Join(dir, "mutex.pb.gz")
	bp := filepath.Join(dir, "block.pb.gz")
	opts, err := parseFlags([]string{
		"-quick", "-clients", "2", "-mixes", "rounds", "-duration", "40ms",
		"-mutexprofile", mp, "-blockprofile", bp,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{mp, bp} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestParseFlagsSubscribersAndMerge(t *testing.T) {
	opts, err := parseFlags([]string{
		"-subscribers", "1000, 50000", "-merge", "-out", "x.json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.cfg.Subscribers) != 2 || opts.cfg.Subscribers[1] != 50000 {
		t.Fatalf("subscribers = %v", opts.cfg.Subscribers)
	}
	if !opts.merge {
		t.Fatalf("merge not applied: %+v", opts)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "zero"},
		{"-clients", "0"},
		{"-clients", "-3"},
		{"-subscribers", "many"},
		{"-subscribers", "0"},
		{"-merge"}, // -merge without -out has nothing to merge into
		{"-duration", "fast"},
		{"-nosuchflag"},
		{"stray-positional"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Fatalf("parseFlags(%v) accepted bad input", args)
		}
	}
	// Flags only the removed mixes read fail loudly, naming the
	// benchmark/ workload that measures the same thing now.
	for _, tc := range []struct {
		args     []string
		workload string
	}{
		{[]string{"-url", "http://localhost:8440"}, "message-bls12381"},
		{[]string{"--url=http://localhost:8440"}, "message-bls12381"},
		{[]string{"-quick", "-coldstart", "1000"}, "coldstart-ss512"},
	} {
		var stderr bytes.Buffer
		_, err := parseFlags(tc.args, &stderr)
		want := "bash benchmark/run.sh --workload " + tc.workload
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(stderr.String(), want) {
			t.Fatalf("parseFlags(%v): err = %v, stderr = %q; want both to name %q", tc.args, err, stderr.String(), want)
		}
	}
}

// TestRunRejectsRemovedMix checks a removed mix name reaches the user
// as an error naming its replacement, not as an empty report.
func TestRunRejectsRemovedMix(t *testing.T) {
	opts, err := parseFlags([]string{"-quick", "-mixes", "fetch"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = run(opts, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bash benchmark/run.sh --workload message-bls12381") {
		t.Fatalf("run(-mixes fetch) = %v, want an error naming message-bls12381", err)
	}
}

// TestMergeReport checks the -merge row algebra: same-identity rows are
// replaced by the fresh run, everything else survives in order.
func TestMergeReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_server.json")
	old := &bench.ServerReport{Rows: []bench.ServerRow{
		{Preset: "Test160", Mix: "rounds", Clients: 4, Ops: 1},
		{Preset: "Test160", Mix: "stream", Subscribers: 1000, Ops: 2},
		{Preset: "SS512", Mix: "rounds", Clients: 4, Ops: 3},
	}}
	raw, err := old.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := &bench.ServerReport{Description: "d", Rows: []bench.ServerRow{
		{Preset: "Test160", Mix: "stream", Subscribers: 1000, Ops: 20},
		{Preset: "Test160", Mix: "relay", Subscribers: 50000, Ops: 30},
	}}
	if err := mergeReport(fresh, path); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(fresh.Rows), fresh.Rows)
	}
	for _, r := range fresh.Rows {
		if r.Mix == "stream" && r.Ops != 20 {
			t.Fatalf("stale stream row survived the merge: %+v", r)
		}
	}
	if fresh.Rows[0].Preset != "Test160" || fresh.Rows[0].Mix != "rounds" {
		t.Fatalf("kept rows must precede fresh rows: %+v", fresh.Rows)
	}

	// Missing file: plain write semantics, no error.
	if err := mergeReport(fresh, filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatal(err)
	}
	// Corrupt file: refuse rather than discard checked-in numbers.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeReport(fresh, bad); err == nil {
		t.Fatal("corrupt report accepted for merge")
	}
}

// TestRunWritesReport runs a tiny real sweep end to end and checks the
// JSON document has the promised shape.
func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_server.json")
	opts, err := parseFlags([]string{
		"-quick", "-out", out,
		"-clients", "2", "-mixes", "rounds,stream", "-duration", "50ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Test160/rounds:3-of-5") || !strings.Contains(stdout.String(), "Test160/stream:50") {
		t.Fatalf("table missing cells:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.ServerReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Ops <= 0 || r.RPS <= 0 || r.P50NS <= 0 || r.P95NS < r.P50NS || r.P99NS < r.P95NS {
			t.Fatalf("implausible row: %+v", r)
		}
		if r.Errors != 0 {
			t.Fatalf("load errors against a healthy in-process server: %+v", r)
		}
	}
}
