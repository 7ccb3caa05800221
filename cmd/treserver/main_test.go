package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/keyfile"
	"timedrelease/tre"
)

func TestLoadOrCreateKey(t *testing.T) {
	set := tre.MustPreset("Test160")
	path := filepath.Join(t.TempDir(), "server.key")

	// First call creates the key.
	k1, err := loadOrCreateKey(path, set, io.Discard)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Second call loads the same key.
	k2, err := loadOrCreateKey(path, set, io.Discard)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if k1.S.Cmp(k2.S) != 0 {
		t.Fatal("reloaded key differs from created key")
	}
	if !set.B.Equal(backend.G1, k1.Pub.SG, k2.Pub.SG) {
		t.Fatal("reloaded public key differs")
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.preset != "SS512" || cfg.addr != ":8440" || cfg.granularity != time.Minute {
		t.Fatalf("wrong defaults: %+v", cfg)
	}
	if cfg.keyPath != "treserver.key" || cfg.archDir != "" || cfg.metrics {
		t.Fatalf("wrong defaults: %+v", cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-preset", "Test160", "-addr", "127.0.0.1:0", "-granularity", "30s",
		"-key", "/tmp/k", "-archive-dir", "/tmp/a", "-metrics",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.preset != "Test160" || cfg.addr != "127.0.0.1:0" || cfg.granularity != 30*time.Second {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.keyPath != "/tmp/k" || cfg.archDir != "/tmp/a" || !cfg.metrics {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-granularity", "notaduration"},
		{"-nosuchflag"},
		{"stray-positional"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Fatalf("parseFlags(%v) accepted bad input", args)
		}
	}
}

// startServer runs the command in a goroutine and returns its bound
// address and a shutdown func that cancels the context and returns
// run's error.
func startServer(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	return startServerDir(t, t.TempDir(), extraArgs...)
}

// startServerDir is startServer with a caller-owned directory, so tests
// can reach the key files the command writes there.
func startServerDir(t *testing.T, dir string, extraArgs ...string) (string, func() error) {
	t.Helper()
	args := append([]string{
		"-preset", "Test160",
		"-addr", "127.0.0.1:0",
		"-granularity", "1m",
		"-key", filepath.Join(dir, "server.key"),
	}, extraArgs...)
	cfg, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	cfg.onReady = func(addr string) { ready <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, io.Discard) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server did not come up")
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return errors.New("run did not return after cancel")
		}
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestGracefulShutdownOnContextCancel(t *testing.T) {
	addr, stop := startServer(t)
	if code, body := get(t, fmt.Sprintf("http://%s/v1/healthz", addr)); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if err := stop(); err != nil {
		t.Fatalf("run returned %v on context cancel, want nil", err)
	}
	// The listener must actually be gone.
	if _, err := http.Get(fmt.Sprintf("http://%s/v1/healthz", addr)); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func TestMetricsAndPprofServedWhenEnabled(t *testing.T) {
	addr, _ := startServer(t, "-metrics")
	base := "http://" + addr

	// The normal API still works.
	if code, _ := get(t, base+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	// The startup catch-up publishes the current epoch from a background
	// goroutine; poll briefly rather than racing it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("/metrics is not snapshot JSON: %v\n%s", err, body)
		}
		if snap.Counters["timeserver.published"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("published = %d, want ≥ 1", snap.Counters["timeserver.published"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := snap.Counters["timeserver.requests.healthz"]; !ok {
		t.Fatalf("healthz request not counted: %v", snap.Counters)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestMetricsAndPprofSuppressedByDefault(t *testing.T) {
	addr, _ := startServer(t)
	base := "http://" + addr
	if code, _ := get(t, base+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without -metrics = %d, want 404", code)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -metrics = %d, want 404", code)
	}
}

func TestStuckHeaderWriterIsDisconnected(t *testing.T) {
	// Slowloris guard: a client that opens a connection and never
	// finishes its request header must be cut off by ReadHeaderTimeout,
	// not hold a connection slot forever.
	addr, _ := startServer(t, "-read-header-timeout", "300ms")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request line, then silence.
	if _, err := conn.Write([]byte("GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Stuck: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server did not close the stuck connection cleanly: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stuck-header connection held for %v, want ~300ms", elapsed)
	}
}

func TestGracefulShutdownWithLongPollInFlight(t *testing.T) {
	// A receiver long-polling /v1/wait for a future release would, left
	// alone, hold its connection far past the shutdown grace period.
	// Drain must turn those waiters away (503, a transient status the
	// client retries elsewhere) so shutdown stays prompt.
	addr, stop := startServer(t)
	base := "http://" + addr

	type result struct {
		code int
		err  error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/wait/2030-01-01T00:00:00Z?timeout=2m")
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		inFlight <- result{code: resp.StatusCode}
	}()

	// Let the long-poll get parked in the handler before shutting down.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if err := stop(); err != nil {
		t.Fatalf("run returned %v with a long-poll in flight, want nil", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v with a long-poll in flight", elapsed)
	}
	select {
	case r := <-inFlight:
		// The waiter must have been answered (503 from the drain), not
		// abandoned with a cut connection.
		if r.err != nil {
			t.Fatalf("in-flight wait died uncleanly: %v", r.err)
		}
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("in-flight wait got %d, want 503", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight wait never completed")
	}
}

func TestRequireTokensGatesCatchupAndStream(t *testing.T) {
	dir := t.TempDir()
	addr, _ := startServerDir(t, dir,
		"-require-tokens",
		"-token-key", filepath.Join(dir, "token.key"),
		"-archive-dir", filepath.Join(dir, "archive"),
	)
	base := "http://" + addr

	// Ungated surfaces still answer; gated ones demand a token first.
	if code, _ := get(t, base+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get(t, base+"/v1/stream"); code != http.StatusUnauthorized {
		t.Fatalf("tokenless /v1/stream = %d, want 401", code)
	}
	if code, _ := get(t, base+"/v1/catchup?from=2026-01-01T00:00:00Z&n=4"); code != http.StatusUnauthorized {
		t.Fatalf("tokenless /v1/catchup = %d, want 401", code)
	}

	// A wallet-carrying client fetches tokens and spends one per gated
	// request, exactly as against the in-process server.
	set := tre.MustPreset("Test160")
	key, err := keyfile.LoadServerKey(filepath.Join(dir, "server.key"), set)
	if err != nil {
		t.Fatal(err)
	}
	wallet := tre.NewTokenWallet(set)
	client := tre.NewTimeClient(base, set, key.Pub, tre.WithTokenWallet(wallet))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.FetchTokens(ctx, 2); err != nil {
		t.Fatalf("FetchTokens: %v", err)
	}
	if wallet.Len() != 2 {
		t.Fatalf("wallet holds %d tokens, want 2", wallet.Len())
	}
	sched, err := tre.NewSchedule(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	label := sched.Label(time.Now())
	u, err := client.WaitFor(ctx, label)
	if err != nil {
		t.Fatalf("WaitFor over gated stream: %v", err)
	}
	if u.Label != label {
		t.Fatalf("got update for %s, want %s", u.Label, label)
	}
	if wallet.Len() != 1 {
		t.Fatalf("wallet holds %d tokens after one gated stream, want 1", wallet.Len())
	}
}
