package tre_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"timedrelease/tre"
)

func TestPublicThresholdFlow(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)

	setup, err := tre.ThresholdDeal(set, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := scheme.UserKeyGen(setup.GroupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	const label = "2027-01-01T00:00:00Z"
	msg := []byte("threshold via the public API")
	ct, err := scheme.EncryptCCA(nil, setup.GroupPub, receiver.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}

	partials := []tre.PartialUpdate{
		tre.IssuePartialUpdate(set, setup.Shares[0], label),
		tre.IssuePartialUpdate(set, setup.Shares[2], label),
	}
	for i, idx := range []int{0, 2} {
		if !tre.VerifyPartialUpdate(set, setup.Shares[idx].Pub, partials[i]) {
			t.Fatalf("partial %d failed verification", idx)
		}
	}
	upd, err := tre.CombinePartialUpdates(set, setup.GroupPub, partials, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scheme.DecryptCCA(setup.GroupPub, receiver, upd, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt: %q %v", got, err)
	}
}

func TestPublicQuorumOverHTTP(t *testing.T) {
	set := tre.MustPreset("Test160")
	setup, err := tre.ThresholdDeal(set, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched := tre.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)

	var shards []tre.Shard
	for _, share := range setup.Shares {
		key := tre.ShardServerKey(set, share)
		srv := tre.NewTimeServer(set, key, sched, tre.WithClock(func() time.Time { return now }))
		if _, err := srv.PublishUpTo(now); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, tre.Shard{
			Index:  share.Index,
			Client: tre.NewTimeClient(ts.URL, set, key.Pub, tre.WithHTTPClient(ts.Client())),
		})
	}

	qc := &tre.QuorumClient{Set: set, GroupPub: setup.GroupPub, K: 2, Shards: shards}
	label := sched.Label(now)
	upd, err := qc.Update(context.Background(), label)
	if err != nil {
		t.Fatal(err)
	}
	if !tre.NewScheme(set).VerifyUpdate(setup.GroupPub, upd) {
		t.Fatal("quorum update must verify against the group key")
	}
}

func TestPublicCatchUpAndLongPoll(t *testing.T) {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := tre.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	srv := tre.NewTimeServer(set, key, sched, tre.WithClock(func() time.Time { return now }))
	if _, err := srv.PublishUpTo(now); err != nil {
		t.Fatal(err)
	}
	now = now.Add(4 * time.Minute)
	if _, err := srv.PublishUpTo(now); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := tre.NewTimeClient(ts.URL, set, key.Pub, tre.WithHTTPClient(ts.Client()))

	labels, err := client.Labels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ups, err := client.CatchUp(context.Background(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != len(labels) {
		t.Fatalf("caught up %d of %d", len(ups), len(labels))
	}
	if _, err := client.WaitForRelease(context.Background(), labels[0]); err != nil {
		t.Fatalf("long-poll on published label: %v", err)
	}
}
