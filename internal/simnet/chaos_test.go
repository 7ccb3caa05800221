package simnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/beacon"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/threshold"
)

func testClock(t *testing.T) beacon.Clock {
	t.Helper()
	clock, err := beacon.New(time.Minute, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	return clock
}

// TestChaosAcceptance is the headline fault-storm scenario: a 3-of-5
// beacon network where k−1 members die mid-round, one of them comes
// back with a torn archive tail, and the relay fronting a third member
// is partitioned for three rounds — and every round's release still
// happens on time, every past round still decrypts after recovery, and
// every quorum combine is byte-identical to a single server holding the
// recovered group secret.
func TestChaosAcceptance(t *testing.T) {
	const rounds = 10
	set := params.MustPreset("Test160")
	clock := testClock(t)
	script := FaultSchedule{
		{Round: 2, Kind: EvKill, Member: 1},
		{Round: 2, Kind: EvKill, Member: 2}, // k−1 = 2 members down at once
		{Round: 3, Kind: EvTearArchive, Member: 1},
		{Round: 4, Kind: EvRestart, Member: 1},
		{Round: 4, Kind: EvRestart, Member: 2},
		{Round: 5, Kind: EvPartition}, // rounds 5,6,7 cut off the relay
		{Round: 8, Kind: EvHeal},
	}
	c, err := NewCluster(ClusterConfig{
		Set: set, K: 3, N: 5, Clock: clock,
		Dir: t.TempDir(), RelayMember: 5, Schedule: script,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The differential reference: a single server holding the Lagrange-
	// recovered group secret. Every quorum combine must match it byte
	// for byte.
	sc := core.NewScheme(set)
	secret, err := threshold.RecoverSecret(set, c.Setup.Shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	single := &core.ServerKeyPair{S: secret, Pub: c.Setup.GroupPub}

	ctx := context.Background()
	qc := c.Quorum()
	for r := uint64(0); r < rounds; r++ {
		if err := c.AdvanceToRound(ctx, r); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		label, err := clock.Label(r)
		if err != nil {
			t.Fatal(err)
		}
		// The release happens ON TIME, whatever the schedule just broke.
		upd, err := qc.Update(ctx, label)
		if err != nil {
			t.Fatalf("round %d (down: 1=%v 2=%v): quorum update: %v",
				r, c.Down(1), c.Down(2), err)
		}
		ref := sc.IssueUpdate(single, label)
		if !bytes.Equal(set.B.AppendPoint(nil, backend.G2, upd.Point), set.B.AppendPoint(nil, backend.G2, ref.Point)) {
			t.Fatalf("round %d: quorum combine differs from the single-server update", r)
		}
	}

	// Mid-storm facts the trace must show: both kills, the torn tail
	// found at restart (8 garbage bytes dropped), the partition window.
	trace := c.Trace()
	for _, want := range []string{
		"r2 kill member 1",
		"r2 kill member 2",
		"r3 tear member 1 archive",
		"r4 restart member 1 (recovered 2, torn 8B)",
		"r4 restart member 2 (recovered 2, torn 0B)",
		"r5 partition relay",
		"r8 heal relay",
	} {
		found := false
		for _, line := range trace {
			if line == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trace is missing %q:\n%v", want, trace)
		}
	}

	// After recovery, EVERY past round decrypts — including the rounds
	// the dead members missed (backfilled on restart) and the rounds the
	// relay missed (synced after heal).
	user, err := sc.UserKeyGen(c.Setup.GroupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := uint64(0); r < rounds; r++ {
		label, _ := clock.Label(r)
		msg := []byte(fmt.Sprintf("round %d payload", r))
		ct, err := sc.EncryptCCA(nil, c.Setup.GroupPub, user.Pub, label, msg)
		if err != nil {
			t.Fatal(err)
		}
		upd, err := qc.Update(ctx, label)
		if err != nil {
			t.Fatalf("past round %d after recovery: %v", r, err)
		}
		got, err := sc.DecryptCCA(c.Setup.GroupPub, user, upd, ct)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("past round %d decrypt: %q %v", r, got, err)
		}
	}

	// The healed relay itself serves the rounds it missed: its archive
	// caught up through the aggregate sync path.
	for r := uint64(5); r < 8; r++ {
		label, _ := clock.Label(r)
		shards := c.Shards()
		var viaRelay *threshold.Shard
		for i := range shards {
			if shards[i].Index == 5 {
				viaRelay = &shards[i]
			}
		}
		if viaRelay == nil {
			t.Fatal("no relay shard")
		}
		if _, err := viaRelay.Client.Update(ctx, label); err != nil {
			t.Fatalf("relay missing partition-window round %d after heal: %v", r, err)
		}
	}
}

// While the faults overlap worst-case (two members dead AND the relay
// partitioned), only k−1 partials are reachable: the release must fail
// with the typed quorum error — and succeed again the moment one member
// returns.
func TestChaosQuorumLostAndRegained(t *testing.T) {
	set := params.MustPreset("Test160")
	clock := testClock(t)
	script := FaultSchedule{
		{Round: 1, Kind: EvKill, Member: 1},
		{Round: 1, Kind: EvKill, Member: 2},
		{Round: 2, Kind: EvPartition}, // only members 3 and 4 remain reachable
		{Round: 3, Kind: EvRestart, Member: 1},
		{Round: 4, Kind: EvHeal},
	}
	c, err := NewCluster(ClusterConfig{
		Set: set, K: 3, N: 5, Clock: clock,
		Dir: t.TempDir(), RelayMember: 5, Schedule: script,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	qc := c.Quorum()
	for r := uint64(0); r <= 2; r++ {
		if err := c.AdvanceToRound(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	label2, _ := clock.Label(2)
	var qe *threshold.QuorumError
	if _, err := qc.Update(ctx, label2); !errors.As(err, &qe) {
		t.Fatalf("2 reachable members of quorum 3: got %v, want *QuorumError", err)
	} else if qe.Need != 3 || qe.Have != 2 {
		t.Fatalf("QuorumError need %d have %d, want 3/2", qe.Need, qe.Have)
	}
	// The unreachable members' causes carry the harness's gate errors.
	if !errors.Is(qe.Causes[0], ErrDown) && !errors.Is(qe.Causes[1], ErrDown) {
		t.Fatalf("no cause unwraps to ErrDown: %v", qe.Causes)
	}

	// Member 1 restarts at round 3 and backfills: the round-2 release —
	// missed while quorum was lost — now combines.
	if err := c.AdvanceToRound(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := qc.Update(ctx, label2); err != nil {
		t.Fatalf("quorum regained but round 2 still fails: %v", err)
	}
}

// Same seed ⇒ same schedule ⇒ same trace: the whole storm is
// reproducible, which is what makes a chaos failure debuggable.
func TestChaosDeterministicBySeed(t *testing.T) {
	const (
		seed   = 8443
		rounds = 12
	)
	set := params.MustPreset("Test160")

	schedA := RandomSchedule(seed, rounds, 5, 3)
	schedB := RandomSchedule(seed, rounds, 5, 3)
	if !reflect.DeepEqual(schedA, schedB) {
		t.Fatal("RandomSchedule is not deterministic in its seed")
	}
	if reflect.DeepEqual(schedA, RandomSchedule(seed+1, rounds, 5, 3)) {
		t.Fatal("different seeds produced the same schedule")
	}

	run := func() []string {
		clock := testClock(t)
		c, err := NewCluster(ClusterConfig{
			Set: set, K: 3, N: 5, Clock: clock,
			Dir: t.TempDir(), RelayMember: 5, Schedule: schedA,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		for r := uint64(0); r < rounds; r++ {
			if err := c.AdvanceToRound(ctx, r); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		// The storm always ends whole: every round combines afterwards.
		qc := c.Quorum()
		for r := uint64(0); r < rounds; r++ {
			label, _ := clock.Label(r)
			if _, err := qc.Update(ctx, label); err != nil {
				t.Fatalf("round %d after storm: %v", r, err)
			}
		}
		return c.Trace()
	}
	t1 := run()
	t2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same schedule, different traces:\n%v\nvs\n%v", t1, t2)
	}
	if len(t1) == 0 {
		t.Fatal("empty trace: the schedule did nothing")
	}
}

// RandomSchedule must never schedule more than n−k members down at
// once (a quorum must always exist), must restart everyone, and must
// heal any partition — across many seeds.
func TestRandomScheduleInvariants(t *testing.T) {
	const (
		rounds = 20
		n, k   = 5, 3
	)
	for seed := int64(0); seed < 200; seed++ {
		sched := RandomSchedule(seed, rounds, n, k)
		down := map[int]bool{}
		partitioned := false
		for _, ev := range sched {
			switch ev.Kind {
			case EvKill:
				if down[ev.Member] {
					t.Fatalf("seed %d: double kill of member %d", seed, ev.Member)
				}
				down[ev.Member] = true
				if len(down) > n-k {
					t.Fatalf("seed %d: %d members down, quorum impossible", seed, len(down))
				}
			case EvRestart:
				if !down[ev.Member] {
					t.Fatalf("seed %d: restart of running member %d", seed, ev.Member)
				}
				delete(down, ev.Member)
			case EvTearArchive:
				if !down[ev.Member] {
					t.Fatalf("seed %d: tear of a running member %d", seed, ev.Member)
				}
			case EvPartition:
				partitioned = true
			case EvHeal:
				partitioned = false
			}
			if ev.Round >= rounds {
				t.Fatalf("seed %d: event past the horizon: %+v", seed, ev)
			}
		}
		if len(down) != 0 || partitioned {
			t.Fatalf("seed %d: storm does not end whole (down=%v partitioned=%v)", seed, down, partitioned)
		}
	}
}

// A member can come back from a COMPLETELY torn archive: if every
// record is lost the restart re-publishes the whole history from its
// share key (the paper's "the server does not need to remember any
// information of key updates").
func TestChaosRestartWithEmptyArchive(t *testing.T) {
	set := params.MustPreset("Test160")
	clock := testClock(t)
	script := FaultSchedule{
		{Round: 1, Kind: EvKill, Member: 3},
		{Round: 4, Kind: EvRestart, Member: 3},
	}
	c, err := NewCluster(ClusterConfig{
		Set: set, K: 2, N: 3, Clock: clock, Dir: t.TempDir(), Schedule: script,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for r := uint64(0); r <= 4; r++ {
		if err := c.AdvanceToRound(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	// Member 3 was down for rounds 1–3; after restart it must serve
	// every one of them (backfilled from the archive tail).
	m := c.members[3]
	for r := uint64(0); r <= 4; r++ {
		label, _ := clock.Label(r)
		if _, err := m.client.Update(ctx, label); err != nil {
			t.Fatalf("member 3 missing round %d after restart: %v", r, err)
		}
	}
}
