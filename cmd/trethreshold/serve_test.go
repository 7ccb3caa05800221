package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/keyfile"
	"timedrelease/tre"
)

func TestParseServeFlagsDefaults(t *testing.T) {
	cfg, err := parseServeFlags([]string{"-share", "s.key"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.preset != "SS512" || cfg.addr != ":8441" || cfg.granularity != time.Minute {
		t.Fatalf("wrong defaults: %+v", cfg)
	}
	if cfg.sharePath != "s.key" || cfg.archDir != "" {
		t.Fatalf("wrong defaults: %+v", cfg)
	}
}

func TestParseServeFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		nil, // -share is required
		{"-share", "s.key", "-granularity", "notaduration"},
		{"-share", "s.key", "-nosuchflag"},
		{"-share", "s.key", "stray-positional"},
	} {
		if _, err := parseServeFlags(args, io.Discard); err == nil {
			t.Fatalf("parseServeFlags(%v) accepted bad input", args)
		}
	}
}

// startMember runs `serve` for one share file and returns its bound
// address and a shutdown func that cancels the context and returns
// runServe's error.
func startMember(t *testing.T, sharePath string, granularity time.Duration) (string, func() error) {
	t.Helper()
	cfg, err := parseServeFlags([]string{
		"-preset", "Test160",
		"-addr", "127.0.0.1:0",
		"-share", sharePath,
		"-granularity", granularity.String(),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	cfg.onReady = func(addr string) { ready <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, cfg, io.Discard) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("runServe exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("member did not come up")
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
			return errors.New("runServe did not return after cancel")
		}
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"deal", "-preset", "Test160", "-k", "1", "-n", "1", "-out-dir", dir}); err != nil {
		t.Fatal(err)
	}
	addr, stop := startMember(t, filepath.Join(dir, "share-1.key"), time.Minute)
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("runServe returned %v on context cancel, want nil", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/v1/healthz", addr)); err == nil {
		t.Fatal("member still accepting connections after shutdown")
	}
}

func TestServeRejectsBadShareFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing.key")
	cfg, err := parseServeFlags([]string{"-preset", "Test160", "-share", bad, "-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := runServe(context.Background(), cfg, io.Discard); err == nil {
		t.Fatal("runServe with a missing share file must fail")
	}
}

// End to end: deal a 2-of-3 group, run two members as real serve
// processes, encrypt to the next beacon round against the group key,
// and decrypt the armored file with a quorum client pinned to the
// member-N.pub files deal wrote. The third member never starts.
func TestArmoredRoundTripThroughServingMembers(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"deal", "-preset", "Test160", "-k", "2", "-n", "3", "-out-dir", dir}); err != nil {
		t.Fatal(err)
	}
	set := tre.MustPreset("Test160")
	codec := tre.NewCodec(set)
	scheme := tre.NewScheme(set)

	loadPub := func(name string) tre.ServerPublicKey {
		raw, err := keyfile.LoadPublic(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		pub, err := codec.UnmarshalServerPublicKey(raw)
		if err != nil {
			t.Fatal(err)
		}
		return pub
	}
	groupPub := loadPub("group.pub")

	// 1-second epochs so the round boundary arrives within the test.
	const period = time.Second
	addr1, _ := startMember(t, filepath.Join(dir, "share-1.key"), period)
	addr3, _ := startMember(t, filepath.Join(dir, "share-3.key"), period)

	// Members run on the wall clock; the round clock's genesis must be on
	// their epoch grid.
	genesis := time.Now().UTC().Truncate(24 * time.Hour)
	clock, err := tre.NewRoundClock(period, genesis)
	if err != nil {
		t.Fatal(err)
	}
	round, err := clock.At(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	round++ // next round: strictly future at encrypt time

	user, err := scheme.UserKeyGen(groupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("2-of-3 beacon round trip")
	armored, err := tre.EncryptToRound(nil, scheme, clock, groupPub, user.Pub, round, msg)
	if err != nil {
		t.Fatal(err)
	}

	shards := []tre.Shard{
		{Index: 1, Client: tre.NewTimeClient("http://"+addr1, set, loadPub("member-1.pub"))},
		{Index: 3, Client: tre.NewTimeClient("http://"+addr3, set, loadPub("member-3.pub"))},
	}
	qc := &tre.QuorumClient{Set: set, GroupPub: groupPub, K: 2, Shards: shards}

	rc, err := tre.DecodeArmored(scheme, armored)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Round != round {
		t.Fatalf("armored round = %d, want %d", rc.Round, round)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	upd, err := qc.WaitForRelease(ctx, rc.Label, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitForRelease through serving members: %v", err)
	}
	got, err := tre.DecryptArmored(scheme, groupPub, user, upd, armored)
	if err != nil {
		t.Fatalf("DecryptArmored: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip = %q, want %q", got, msg)
	}
}

func TestDealWritesMemberPubFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"deal", "-preset", "Test160", "-k", "2", "-n", "3", "-out-dir", dir}); err != nil {
		t.Fatal(err)
	}
	set := tre.MustPreset("Test160")
	codec := tre.NewCodec(set)
	for i := 1; i <= 3; i++ {
		raw, err := keyfile.LoadPublic(filepath.Join(dir, fmt.Sprintf("member-%d.pub", i)))
		if err != nil {
			t.Fatalf("member-%d.pub: %v", i, err)
		}
		mpub, err := codec.UnmarshalServerPublicKey(raw)
		if err != nil {
			t.Fatalf("member-%d.pub: %v", i, err)
		}
		// The member key must agree with the share file it was derived
		// from — serve answers under exactly this key.
		loaded, err := keyfile.LoadShare(filepath.Join(dir, fmt.Sprintf("share-%d.key", i)), set)
		if err != nil {
			t.Fatal(err)
		}
		want := tre.ShardServerKey(set, loaded.Share).Pub
		if !set.B.Equal(backend.G1, mpub.SG, want.SG) {
			t.Fatalf("member-%d.pub does not match share-%d.key", i, i)
		}
	}
}
