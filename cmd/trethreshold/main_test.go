package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/keyfile"
	"timedrelease/internal/timeserver"
	"timedrelease/tre"
)

func TestDealPartialCombineFlow(t *testing.T) {
	dir := t.TempDir()
	const preset = "Test160"

	if err := run([]string{"deal", "-preset", preset, "-k", "2", "-n", "3", "-out-dir", dir}); err != nil {
		t.Fatalf("deal: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "share-1.key")); err != nil {
			t.Fatalf("share %d missing: %v", i, err)
		}
	}

	const label = "2027-01-01T00:00:00Z"
	p1 := filepath.Join(dir, "p1.bin")
	p3 := filepath.Join(dir, "p3.bin")
	if err := run([]string{"partial", "-preset", preset, "-share", filepath.Join(dir, "share-1.key"), "-label", label, "-out", p1}); err != nil {
		t.Fatalf("partial 1: %v", err)
	}
	if err := run([]string{"partial", "-preset", preset, "-share", filepath.Join(dir, "share-3.key"), "-label", label, "-out", p3}); err != nil {
		t.Fatalf("partial 3: %v", err)
	}

	updPath := filepath.Join(dir, "update.bin")
	if err := run([]string{"combine", "-preset", preset, "-group", filepath.Join(dir, "group.pub"),
		"-k", "2", "-in", p1, "-in", p3, "-out", updPath}); err != nil {
		t.Fatalf("combine: %v", err)
	}

	// The combined update must decrypt real traffic sealed to the group
	// key.
	set := tre.MustPreset(preset)
	codec := tre.NewCodec(set)
	rawGroup, err := keyfile.LoadPublic(filepath.Join(dir, "group.pub"))
	if err != nil {
		t.Fatal(err)
	}
	groupPub, err := codec.UnmarshalServerPublicKey(rawGroup)
	if err != nil {
		t.Fatal(err)
	}
	rawUpd, err := os.ReadFile(updPath)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := codec.UnmarshalKeyUpdate(rawUpd)
	if err != nil {
		t.Fatal(err)
	}
	scheme := tre.NewScheme(set)
	if !scheme.VerifyUpdate(groupPub, upd) {
		t.Fatal("combined update must verify against the group key")
	}
	user, err := scheme.UserKeyGen(groupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := scheme.EncryptCCA(nil, groupPub, user.Pub, label, []byte("threshold CLI flow"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scheme.DecryptCCA(groupPub, user, upd, ct)
	if err != nil || string(got) != "threshold CLI flow" {
		t.Fatalf("decrypt: %q %v", got, err)
	}
}

func TestCombineRejectsTooFew(t *testing.T) {
	dir := t.TempDir()
	const preset = "Test160"
	if err := run([]string{"deal", "-preset", preset, "-k", "2", "-n", "3", "-out-dir", dir}); err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(dir, "p1.bin")
	if err := run([]string{"partial", "-preset", preset, "-share", filepath.Join(dir, "share-1.key"), "-label", "l", "-out", p1}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"combine", "-preset", preset, "-group", filepath.Join(dir, "group.pub"),
		"-k", "2", "-in", p1}); err == nil {
		t.Fatal("combine with one partial for k=2 must fail")
	}
}

func TestExportServerKey(t *testing.T) {
	dir := t.TempDir()
	const preset = "Test160"
	if err := run([]string{"deal", "-preset", preset, "-k", "1", "-n", "2", "-out-dir", dir}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "shard1.key")
	if err := run([]string{"export-server-key", "-preset", preset,
		"-share", filepath.Join(dir, "share-1.key"), "-out", out}); err != nil {
		t.Fatalf("export-server-key: %v", err)
	}
	set := tre.MustPreset(preset)
	if _, err := keyfile.LoadServerKey(out, set); err != nil {
		t.Fatalf("exported key must load as an ordinary server key: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no args must fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("bad subcommand must fail")
	}
	if err := run([]string{"partial"}); err == nil {
		t.Fatal("partial without flags must fail")
	}
	if err := run([]string{"combine"}); err == nil {
		t.Fatal("combine without flags must fail")
	}
}

// End to end: deal a 2-of-3 group, export two members' keys and serve
// them as treserver does, encrypt to the next beacon round against the
// group key, and decrypt the armored file with a quorum client pinned
// to the member-N.pub files deal wrote. The third member never starts.
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
	url1 := serveMember(t, dir, 1, period)
	url3 := serveMember(t, dir, 3, period)

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
		{Index: 1, Client: tre.NewTimeClient(url1, set, loadPub("member-1.pub"))},
		{Index: 3, Client: tre.NewTimeClient(url3, set, loadPub("member-3.pub"))},
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
	upd, err := qc.WaitForRelease(ctx, rc.Label)
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
		// from — its exported treserver key answers under exactly this
		// key.
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

// serveMember exports share-<i>.key from dir and serves it the way
// treserver -key does: keyfile.LoadServerKey, then a timeserver.Server
// publishing on the wall clock. It returns the member's URL.
func serveMember(t *testing.T, dir string, i int, granularity time.Duration) string {
	t.Helper()
	keyPath := filepath.Join(dir, fmt.Sprintf("member-%d.key", i))
	if err := run([]string{"export-server-key", "-preset", "Test160",
		"-share", filepath.Join(dir, fmt.Sprintf("share-%d.key", i)), "-out", keyPath}); err != nil {
		t.Fatal(err)
	}
	set := tre.MustPreset("Test160")
	key, err := keyfile.LoadServerKey(keyPath, set)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := tre.NewSchedule(granularity)
	if err != nil {
		t.Fatal(err)
	}
	srv := timeserver.NewServer(set, key, sched)
	hs := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
		srv.Drain()
		hs.Close()
	})
	return hs.URL
}
