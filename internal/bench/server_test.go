package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestServerLoadDefaults(t *testing.T) {
	full := ServerLoadConfig{}.withDefaults()
	if len(full.Presets) != 2 || len(full.Clients) != 2 {
		t.Fatalf("full defaults: %+v", full)
	}
	if !reflect.DeepEqual(full.Mixes, []string{"rounds", "stream", "relay"}) {
		t.Fatalf("default mixes = %v, want exactly rounds, stream, relay", full.Mixes)
	}
	if len(full.Subscribers) != 2 || full.Subscribers[1] < 50000 {
		t.Fatalf("full run must include a ≥50k subscriber level: %v", full.Subscribers)
	}
	if full.StreamPublishes <= 0 || full.StreamInterval <= 0 {
		t.Fatalf("stream cell defaults missing: %+v", full)
	}
	quick := ServerLoadConfig{Quick: true}.withDefaults()
	if len(quick.Presets) != 1 || quick.Presets[0] != "Test160" {
		t.Fatalf("quick presets: %v", quick.Presets)
	}
	if len(quick.Subscribers) != 1 || quick.Subscribers[0] >= full.Subscribers[0] {
		t.Fatalf("quick subscriber level must be smaller than full: %v", quick.Subscribers)
	}
	if quick.CellDuration >= full.CellDuration {
		t.Fatal("quick cells must be shorter than full cells")
	}
}

func TestServerLoadRejectsUnknownMix(t *testing.T) {
	run := func(mix string) error {
		_, _, err := RunServerLoad(ServerLoadConfig{Quick: true, Mixes: []string{mix}})
		return err
	}
	if err := run("stampede"); err == nil || !strings.Contains(err.Error(), "stampede") {
		t.Fatalf("unknown mix not rejected: %v", err)
	}
	// Every mix benchmark/ superseded fails loudly, naming the workload
	// that measures it now.
	if len(replacedMixes) != 7 {
		t.Fatalf("replacedMixes = %v, want the seven removed mixes", replacedMixes)
	}
	for mix, workload := range replacedMixes {
		err := run(mix)
		if err == nil || !strings.Contains(err.Error(), "bash benchmark/run.sh --workload "+workload) {
			t.Fatalf("removed mix %q: err = %v, want one naming workload %s", mix, err, workload)
		}
	}
}

// TestServerLoadQuickCell runs one real in-process cell per retained
// mix and sanity-checks the accounting that BENCH_server.json is built
// from.
func TestServerLoadQuickCell(t *testing.T) {
	rep, table, err := RunServerLoad(ServerLoadConfig{
		Quick: true, Clients: []int{2}, CellDuration: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mixes []string
	for _, r := range rep.Rows {
		mixes = append(mixes, r.Mix)
	}
	if !reflect.DeepEqual(mixes, []string{"rounds", "stream", "relay"}) {
		t.Fatalf("default sweep ran %v, want exactly one rounds, one stream and one relay cell", mixes)
	}
	for _, r := range rep.Rows {
		if r.Preset != "Test160" {
			t.Fatalf("wrong cell identity: %+v", r)
		}
		if r.P50NS <= 0 || r.P95NS < r.P50NS || r.P99NS < r.P95NS {
			t.Fatalf("quantiles not monotone: %+v", r)
		}
		if r.Mix == "rounds" {
			// The quorum cell: every op combines k-of-n partials, so the
			// combine counter must account for every successful op and the
			// healthy fixture must lose no partial fetches.
			if r.Clients != 2 || r.Members != 5 || r.Quorum != 3 {
				t.Fatalf("rounds cell shape: %+v", r)
			}
			if r.QuorumCombines != r.Ops-r.Errors || r.PartialsFailed != 0 {
				t.Fatalf("rounds cell accounting: %+v", r)
			}
			if r.Ops <= 0 || r.Errors != 0 || r.RPS <= 0 || r.ServerRequests <= 0 || r.ClientPairings <= 0 {
				t.Fatalf("implausible rounds cell: %+v", r)
			}
			if r.Subscribers != 0 || r.Transport != "" || r.PerConnBytes != 0 || r.Published != 0 {
				t.Fatalf("rounds cell carries fan-out fields: %+v", r)
			}
			continue
		}
		// Fan-out cells: Ops counts delivered events (subscribers ×
		// publishes), quantiles are publish→delivery wakeup latency.
		if r.Subscribers <= 0 || r.Clients != 0 {
			t.Fatalf("fan-out cell identity: %+v", r)
		}
		if r.Transport != "tcp" && r.Transport != "inmem" {
			t.Fatalf("fan-out cell missing transport: %+v", r)
		}
		if r.Ops != int64(r.Subscribers)*r.Published || r.Errors != 0 || r.Sheds != 0 {
			t.Fatalf("fan-out cell dropped deliveries: %+v", r)
		}
		if r.PerConnBytes <= 0 {
			t.Fatalf("fan-out cell recorded no per-conn bytes: %+v", r)
		}
		if r.Mix == "stream" && r.ServerRequests != int64(r.Subscribers) {
			t.Fatalf("stream cell: %d server requests for %d subscribers, want one each", r.ServerRequests, r.Subscribers)
		}
		if r.Members != 0 || r.Quorum != 0 || r.QuorumCombines != 0 || r.PartialsFailed != 0 {
			t.Fatalf("fan-out cell carries quorum fields: %+v", r)
		}
	}
	if !strings.Contains(table.String(), "Test160/rounds:3-of-5") {
		t.Fatalf("table missing rounds cell:\n%s", table.String())
	}
}

func TestPct(t *testing.T) {
	if pct(nil, 0.5) != 0 {
		t.Fatal("empty samples must yield 0")
	}
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := pct(s, 0.50); got != 50 {
		t.Fatalf("p50 = %d", got)
	}
	if got := pct(s, 0.99); got != 90 {
		t.Fatalf("p99 (nearest-rank) = %d", got)
	}
	if got := pct(s, 1.0); got != 100 {
		t.Fatalf("p100 = %d", got)
	}
}

func TestNSHuman(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{950, "950 ns"},
		{1_500, "1.5 µs"},
		{2_500_000, "2.50 ms"},
		{3_000_000_000, "3.00 s"},
	} {
		if got := nsHuman(tc.ns); got != tc.want {
			t.Fatalf("nsHuman(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
