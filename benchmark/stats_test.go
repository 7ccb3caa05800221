package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(vals, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 || spread(nil) != 0 {
		t.Error("empty input must reduce to 0")
	}
	if got := spread([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestWindowRatesCountFractions(t *testing.T) {
	const s = int64(1e9)
	// Two windows of 1 s. One operation sits in the first, one straddles
	// the boundary 3:1, one lies beyond the last window.
	ops := []interval{{0, s / 2}, {s / 4, 5 * s / 4}, {3 * s, 4 * s}}
	got := windowRates(ops, 0, s, 2)
	if !near(got[0], 1.75) || !near(got[1], 0.25) {
		t.Errorf("window rates = %v, want [1.75 0.25]", got)
	}
}

func TestPercentilesPoolEverySampleAtItsWindowsSpeed(t *testing.T) {
	const ms = int64(1e6)
	// Three windows of 100 ms holding operations of 1, 9 and 2 ms; a
	// phase that starts past the end belongs to the last window.
	var ops []interval
	for w, dur := range []int64{1, 9, 2} {
		for i := int64(0); i < 3; i++ {
			start := int64(w)*100*ms + i*10*ms
			ops = append(ops, interval{start, start + dur*ms})
		}
	}
	ops = append(ops, interval{301 * ms, 303 * ms})
	by := byWindow(ops, 0, 100*ms, 3)
	if len(by[0]) != 3 || len(by[1]) != 3 || len(by[2]) != 4 {
		t.Fatalf("windows hold %d, %d, %d samples, want 3, 3, 4", len(by[0]), len(by[1]), len(by[2]))
	}
	// As measured: 1,1,1,2,2,2,2,9,9,9 — the pooled quantiles.
	raw := pooled(by, nil)
	if got := median(raw); !near(got, 2) {
		t.Errorf("pooled p50 = %v, want 2", got)
	}
	if got := percentile(raw, 0.9); !near(got, 9) {
		t.Errorf("pooled p90 = %v, want 9", got)
	}
	// The machine ran 4.5× slower in the middle window: at reference
	// speed its samples read 2 like the others'.
	ref := pooled(by, []float64{1, 4.5, 1})
	if got := percentile(ref, 0.9); !near(got, 2) {
		t.Errorf("p90 at reference speed = %v, want 2", got)
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {90, 200}}
	// Clipped to [8, 100): [10,30) ∪ [40,50) ∪ [90,100).
	if got := unionLen(ivs, 8, 100); got != 40 {
		t.Errorf("union = %d, want 40", got)
	}
}

func TestSelfTimeAndUnattributedShare(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "op.open", Start: 10, End: 90},
		// In-place children of the phase overlap: they cover [20,60).
		{ID: 3, Parent: 2, Op: 1, Name: "timeserver.http_get", Start: 20, End: 50},
		{ID: 4, Parent: 3, Op: 1, Name: "timeserver.handler", Start: 30, End: 40},
		{ID: 5, Parent: 2, Op: 1, Name: "core.verify_update", Start: 40, End: 60},
		// A replay ran after the operation; its duration still counts.
		{ID: 6, Parent: 2, Op: 1, Name: "core.decrypt_cca", Start: 200, End: 225, Replay: true},
		// A probe has no parent and explains nothing.
		{ID: 7, Op: 1, Name: "backend.pair", Start: 230, End: 260, Replay: true},
		// A failed operation and one outside the interval are in no sample.
		{ID: 8, Op: 8, Name: "op", Start: 110, End: 120, Failed: true},
		{ID: 9, Op: 9, Name: "op", Start: 500, End: 600},
	}
	st := analyze(spans, 0, 300)
	if len(st.ops) != 1 || st.failed != 1 || st.allOps != 2 {
		t.Fatalf("ops=%d failed=%d allOps=%d, want 1, 1, 2", len(st.ops), st.failed, st.allOps)
	}
	// op self = 100 − 80 = 20; phase self = 80 − 40 − 25 = 15; the layer
	// spans' own self time is attributed to their layers.
	if len(st.unattributed) != 1 || !near(st.unattributed[0], 0.35) {
		t.Errorf("unattributed share = %v, want [0.35]", st.unattributed)
	}
	if got := st.durMS["core.verify_update"]; len(got) != 1 || !near(got[0], 20e-6) {
		t.Errorf("verify_update durations = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, spread float64
		higher       bool
		want         string
	}{
		{10, 10.9, 0.02, false, "ok"},
		{10, 11.1, 0.02, false, "regressed"},
		{10, 8, 0.02, false, "ok"},
		{10, 8.9, 0.02, true, "regressed"},
		{10, 12, 0.02, true, "ok"},
		{10, 11.1, 0.2, false, "unresolved"},
	} {
		if got := verdictOf(c.a, c.b, c.spread, 0.10, c.higher); got != c.want {
			t.Errorf("verdictOf(%v, %v, spread %v, higher %v) = %s, want %s", c.a, c.b, c.spread, c.higher, got, c.want)
		}
	}
}

func TestSlowdownIsMedianBurstOfTheInterval(t *testing.T) {
	c := &calibrator{at: []int64{10, 20, 30, 40, 50}, took: []int64{100e3, 150e3, 900e3, 130e3, 7e6}}
	if got := c.slowdown(15, 45); !near(got, 1.5) {
		t.Errorf("slowdown over [15,45) = %v, want 1.5", got)
	}
	if got := c.slowdown(60, 70); got != 1 {
		t.Errorf("slowdown without a burst = %v, want 1", got)
	}
}

// TestCompareGatesWorkloadMetricsAndRunLength: a metric reported on one
// workload only is held to its bound like the rest, and result files of
// different run lengths are refused.
func TestCompareGatesWorkloadMetricsAndRunLength(t *testing.T) {
	write := func(seconds int, openMS float64) string {
		run := &result{Workload: "message-bls12381", Correct: true, Metrics: map[string]metric{
			"op_p50_ms": {Value: 17, Unit: "ms"}, "open_p50_ms": {Value: openMS, Unit: "ms"}}}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := writeJSON(path, resultFile{Env: environment{Seconds: seconds}, Runs: []*result{run}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(measureSeconds, 9)
	var out bytes.Buffer
	if err := compareFiles(&out, []string{base, write(measureSeconds, 9.5)}); err != nil {
		t.Errorf("a 6 %% slower open: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, []string{base, write(measureSeconds, 12)}); err == nil || !strings.Contains(out.String(), "open_p50_ms") {
		t.Errorf("a 33 %% slower open passed (%v):\n%s", err, out.String())
	}
	if err := compareFiles(&out, []string{base, write(5, 9)}); err == nil {
		t.Error("a 5 s file was compared against a 20 s file")
	}
}
