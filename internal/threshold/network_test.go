package threshold

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/faulthttp"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
)

type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// netEnv spins up one httptest time server per shard.
type netEnv struct {
	set    *params.Set
	setup  *Setup
	label  string
	now    time.Time
	shards []Shard
	srvs   []*timeserver.Server
	hts    []*httptest.Server
}

func newNetEnv(t *testing.T, k, n int, publish []bool) *netEnv {
	t.Helper()
	set := params.MustPreset("Test160")
	setup, err := Deal(set, nil, k, n)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	ck := &clock{t: now}
	env := &netEnv{set: set, setup: setup, label: sched.Label(now), now: now}
	for i, sh := range setup.Shares {
		srv := timeserver.NewServer(set, ShardServerKey(set, sh), sched, timeserver.WithClock(ck.Now))
		if publish == nil || publish[i] {
			if _, err := srv.PublishUpTo(now); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		client := timeserver.NewClient(ts.URL, set, ShardServerKey(set, sh).Pub, timeserver.WithHTTPClient(ts.Client()))
		env.shards = append(env.shards, Shard{Index: sh.Index, Client: client})
		env.srvs = append(env.srvs, srv)
		env.hts = append(env.hts, ts)
	}
	return env
}

func TestQuorumUpdateAllAlive(t *testing.T) {
	e := newNetEnv(t, 3, 5, nil)
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards}
	upd, err := qc.Update(context.Background(), e.label)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if !core.NewScheme(e.set).VerifyUpdate(e.setup.GroupPub, upd) {
		t.Fatal("quorum update must verify against the group key")
	}

	// And it decrypts ordinary TRE traffic addressed to the group key.
	sc := core.NewScheme(e.set)
	user, err := sc.UserKeyGen(e.setup.GroupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("via the quorum")
	ct, err := sc.Encrypt(nil, e.setup.GroupPub, user.Pub, e.label, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Decrypt(user, upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt: %q %v", got, err)
	}
}

func TestQuorumSurvivesCrashedShards(t *testing.T) {
	// Shards 1 and 3 never published (simulating downtime): quorum of 3
	// must still be met by the other three.
	e := newNetEnv(t, 3, 5, []bool{true, false, true, false, true})
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards}
	upd, err := qc.Update(context.Background(), e.label)
	if err != nil {
		t.Fatalf("Update with 2 crashed shards: %v", err)
	}
	if !core.NewScheme(e.set).VerifyUpdate(e.setup.GroupPub, upd) {
		t.Fatal("update must verify")
	}
}

func TestQuorumFailsBelowThreshold(t *testing.T) {
	// Only 2 of 5 shards are up; quorum 3 must fail with a useful error.
	e := newNetEnv(t, 3, 5, []bool{true, false, true, false, false})
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards}
	if _, err := qc.Update(context.Background(), e.label); err == nil {
		t.Fatal("quorum below threshold must fail")
	}
}

func TestQuorumRejectsByzantineShard(t *testing.T) {
	// One shard serves updates under a DIFFERENT key (a compromised or
	// impersonated server). Its client rejects them, so it contributes
	// nothing; the honest majority still meets quorum.
	e := newNetEnv(t, 3, 5, nil)
	set := e.set
	sched := timefmt.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)

	evilKey, err := core.NewScheme(set).ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	evil := timeserver.NewServer(set, evilKey, sched, timeserver.WithClock(func() time.Time { return now }))
	if _, err := evil.PublishUpTo(now); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(evil.Handler())
	t.Cleanup(ts.Close)
	// The shard-2 slot now points at the evil server but still pins the
	// honest shard-2 key.
	honestPub := ShardServerKey(set, e.setup.Shares[1]).Pub
	e.shards[1] = Shard{
		Index:  e.setup.Shares[1].Index,
		Client: timeserver.NewClient(ts.URL, set, honestPub, timeserver.WithHTTPClient(ts.Client())),
	}

	qc := &QuorumClient{Set: set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards}
	upd, err := qc.Update(context.Background(), e.label)
	if err != nil {
		t.Fatalf("Update with 1 Byzantine shard: %v", err)
	}
	if !core.NewScheme(set).VerifyUpdate(e.setup.GroupPub, upd) {
		t.Fatal("update must verify")
	}
}

func TestQuorumValidation(t *testing.T) {
	e := newNetEnv(t, 2, 3, nil)
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 4, Shards: e.shards}
	if _, err := qc.Update(context.Background(), e.label); err == nil {
		t.Fatal("K > #shards must fail fast")
	}
}

func TestQuorumFailureIsTypedWithCauses(t *testing.T) {
	e := newNetEnv(t, 3, 5, []bool{true, false, true, false, false})
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards}
	_, err := qc.Update(context.Background(), e.label)
	var qe *QuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("got %v, want *QuorumError", err)
	}
	if qe.Need != 3 || qe.Have != 2 {
		t.Fatalf("QuorumError need %d have %d, want need 3 have 2", qe.Need, qe.Have)
	}
	if len(qe.Causes) != 3 {
		t.Fatalf("%d causes recorded, want 3 (one per dead shard)", len(qe.Causes))
	}
	// The per-shard causes unwrap to the client's sentinel.
	if !errors.Is(err, timeserver.ErrNotYetPublished) {
		t.Fatalf("causes must unwrap to ErrNotYetPublished, got %v", err)
	}
}

func TestQuorumMetrics(t *testing.T) {
	e := newNetEnv(t, 3, 5, []bool{true, false, true, true, true})
	reg := obs.NewRegistry()
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards, Metrics: reg}
	if _, err := qc.Update(context.Background(), e.label); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["quorum.combines"] != 1 {
		t.Fatalf("quorum.combines = %d, want 1", s.Counters["quorum.combines"])
	}
	if ok := s.Counters["quorum.partials_ok"]; ok < 3 {
		t.Fatalf("quorum.partials_ok = %d, want >= 3", ok)
	}
	if _, have := s.Histograms["quorum.combine_ns"]; !have {
		t.Fatal("quorum.combine_ns histogram not recorded")
	}
}

// WaitForRelease treats shard failures as transient: a quorum that is
// short one member succeeds once the member publishes, which answers
// the member's parked long-poll.
func TestQuorumWaitForReleaseRecovers(t *testing.T) {
	set := params.MustPreset("Test160")
	setup, err := Deal(set, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched := timefmt.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	label := sched.Label(now)

	var shards []Shard
	var late *timeserver.Server
	for i, sh := range setup.Shares {
		srv := timeserver.NewServer(set, ShardServerKey(set, sh), sched, timeserver.WithClock(func() time.Time { return now }))
		if i == 0 {
			late = srv // publishes only after the first poll fails
		} else if i == 1 {
			// Never publishes: with one shard late and one dead, quorum 2
			// depends on the late shard recovering.
			_ = srv
		} else {
			if _, err := srv.PublishUpTo(now); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, Shard{
			Index: sh.Index,
			Client: timeserver.NewClient(ts.URL, set, ShardServerKey(set, sh).Pub,
				timeserver.WithHTTPClient(ts.Client()), timeserver.WithRetry(timeserver.NoRetry)),
		})
	}
	qc := &QuorumClient{Set: set, GroupPub: setup.GroupPub, K: 2, Shards: shards}

	// Not released yet.
	if _, err := qc.Update(context.Background(), label); err == nil {
		t.Fatal("quorum met before the late shard published")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Publish the late shard's update once its long-poll has
		// certainly been issued.
		time.Sleep(30 * time.Millisecond)
		if _, err := late.PublishUpTo(now); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	upd, err := qc.WaitForRelease(ctx, label)
	<-done
	if err != nil {
		t.Fatalf("WaitForRelease: %v", err)
	}
	if !core.NewScheme(set).VerifyUpdate(setup.GroupPub, upd) {
		t.Fatal("recovered quorum update must verify")
	}
}

func TestQuorumWaitForReleaseHonorsContext(t *testing.T) {
	e := newNetEnv(t, 3, 5, []bool{true, false, false, false, false})
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 3, Shards: e.shards}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := qc.WaitForRelease(ctx, e.label); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// A member whose wait fails is asked again after rewaitPause while the
// others keep waiting. 2 of 3: member 1 fails its first request, member
// 2 has published, member 3 is reachable but never publishes (its
// long-poll stays parked). The wait combines members 1 and 2 soon after
// member 1 recovers, without waiting on member 3.
func TestQuorumWaitForReleaseRetriesFailedMember(t *testing.T) {
	e := newNetEnv(t, 2, 3, []bool{true, true, false})
	ft := faulthttp.New(e.hts[0].Client().Transport,
		&faulthttp.Rule{From: 1, To: 1, Err: errors.New("connection refused")})
	e.shards[0].Client = timeserver.NewClient(e.hts[0].URL, e.set, e.shards[0].Client.ServerPublicKey(),
		timeserver.WithHTTPClient(ft.Client()), timeserver.WithRetry(timeserver.NoRetry))
	qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 2, Shards: e.shards}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	upd, err := qc.WaitForRelease(ctx, e.label)
	if err != nil {
		t.Fatalf("WaitForRelease: %v", err)
	}
	if !core.NewScheme(e.set).VerifyUpdate(e.setup.GroupPub, upd) {
		t.Fatal("quorum update must verify")
	}
	if d := time.Since(start); d < rewaitPause || d > rewaitPause+3*time.Second {
		t.Fatalf("returned after %v, want soon after the retry pause of %v", d, rewaitPause)
	}
	if n := ft.Requests(); n != 2 {
		t.Fatalf("failing member asked %d times, want 2", n)
	}
	if n := e.srvs[1].Served(); n != 1 {
		t.Fatalf("healthy member served %d requests, want 1", n)
	}
	waitFor(t, func() bool { return e.srvs[2].Subscribers() == 0 })
}

// waitGoroutines polls until at most n goroutines are left and fails
// with a dump otherwise (as in internal/timeserver's tests).
func waitGoroutines(t *testing.T, n int, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after %s, %d before it:\n%s",
				runtime.NumGoroutine(), after, n, buf[:runtime.Stack(buf, true)])
		}
	}
}

// However a quorum wait with one member down ends — the live members
// publish, the caller cancels, or the members drain (503s, then the
// caller gives up) — no goroutine outlives it and no member's hub holds
// a subscription for it.
func TestQuorumWaitForReleaseLeaksNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, e *netEnv, cancel context.CancelFunc)
		ok   func(error) bool
	}{
		{"publish", func(t *testing.T, e *netEnv, _ context.CancelFunc) {
			for _, srv := range e.srvs[1:] {
				if _, err := srv.PublishUpTo(e.now); err != nil {
					t.Error(err)
				}
			}
		}, func(err error) bool { return err == nil }},
		{"cancel", func(_ *testing.T, _ *netEnv, cancel context.CancelFunc) { cancel() },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"drain", func(_ *testing.T, e *netEnv, cancel context.CancelFunc) {
			for _, srv := range e.srvs[1:] {
				srv.Drain()
			}
			time.AfterFunc(rewaitPause/2, cancel)
		}, func(err error) bool { return errors.Is(err, context.Canceled) && strings.Contains(err.Error(), "503") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newNetEnv(t, 2, 3, []bool{false, false, false})
			e.hts[0].Close() // member 1 is down for the whole wait
			for _, ts := range e.hts {
				ts.Client().CloseIdleConnections()
			}
			before := runtime.NumGoroutine()
			qc := &QuorumClient{Set: e.set, GroupPub: e.setup.GroupPub, K: 2, Shards: e.shards}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := qc.WaitForRelease(ctx, e.label)
				done <- err
			}()
			for _, srv := range e.srvs[1:] {
				waitFor(t, func() bool { return srv.Subscribers() == 1 })
			}
			tc.end(t, e, cancel)
			if err := <-done; !tc.ok(err) {
				t.Fatalf("quorum wait ended by %s: %v", tc.name, err)
			}
			for _, srv := range e.srvs[1:] {
				waitFor(t, func() bool { return srv.Subscribers() == 0 })
			}
			for _, ts := range e.hts {
				ts.Client().CloseIdleConnections()
			}
			waitGoroutines(t, before, "a quorum wait ended by "+tc.name)
		})
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10 s")
		}
	}
}
