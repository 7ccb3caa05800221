package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/wire"
)

// minuteLabels returns n ascending canonical labels.
func minuteLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("2026-07-05T%02d:%02d:00Z", 10+i/60, i%60)
	}
	return out
}

// openCkptLog opens a Log with a prefix aggregate every 4 records, so a
// dozen records already cross aggregate boundaries. The interval is one
// production constant; only an in-package test can shrink the field.
func openCkptLog(t *testing.T, dir string, codec *wire.Codec, opts ...LogOption) *Log {
	t.Helper()
	l, err := OpenDir(dir, codec, append([]LogOption{func(l *Log) { l.interval = 4 }}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// checkRange asserts the Log's checkpoint-backed Range agrees exactly
// with a direct recomputation over the generic archive path.
func checkRange(t *testing.T, l *Log, codec *wire.Codec, from, to string, limit int) RangeResult {
	t.Helper()
	got, err := l.Range(from, to, limit)
	if err != nil {
		t.Fatalf("Range(%s, %s, %d): %v", from, to, limit, err)
	}
	want, err := RangeOf(l.mem, codec, from, to, limit) // Memory has no Ranger: generic path
	if err != nil {
		t.Fatal(err)
	}
	b := codec.Set.B
	if got.Total != want.Total || len(got.Updates) != len(want.Updates) {
		t.Fatalf("range shape: got %d/%d, want %d/%d", len(got.Updates), got.Total, len(want.Updates), want.Total)
	}
	for i := range got.Updates {
		if got.Updates[i].Label != want.Updates[i].Label || !b.Equal(backend.G2, got.Updates[i].Point, want.Updates[i].Point) {
			t.Fatalf("range update %d differs", i)
		}
	}
	if !b.Equal(backend.G2, got.Aggregate, want.Aggregate) {
		t.Fatal("checkpoint-backed aggregate differs from direct sum")
	}
	if got.Root != want.Root {
		t.Fatal("checkpoint-backed root differs from direct recomputation")
	}
	return got
}

func TestLogRangeMatchesDirectSum(t *testing.T) {
	sc, key, codec := fixtures(t)
	dir := t.TempDir()
	l := openCkptLog(t, dir, codec)
	labels := minuteLabels(11) // interval 4 → 2 checkpoints + tail of 3
	for _, lab := range labels {
		if err := l.Put(sc.IssueUpdate(key, lab)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.ckpts) != 2 {
		t.Fatalf("prefix aggregates = %d, want 2", len(l.ckpts))
	}
	// Whole range, sub-ranges crossing checkpoint boundaries, single
	// record, empty range, and a truncating limit.
	checkRange(t, l, codec, labels[0], labels[len(labels)-1], 0)
	checkRange(t, l, codec, labels[2], labels[9], 0)
	checkRange(t, l, codec, labels[5], labels[5], 0)
	checkRange(t, l, codec, "2020-01-01T00:00:00Z", "2020-01-02T00:00:00Z", 0)
	got := checkRange(t, l, codec, labels[0], labels[len(labels)-1], 5)
	if got.Total != 11 || len(got.Updates) != 5 {
		t.Fatalf("limited range: %d/%d, want 5/11", len(got.Updates), got.Total)
	}
	if got.Updates[0].Label != labels[0] {
		t.Fatal("truncation must keep the OLDEST records")
	}
	if _, err := l.Range(labels[3], labels[1], 0); err == nil {
		t.Fatal("inverted range must error")
	}

	// Aggregate of the full range verifies as one signature run.
	full, _ := l.Range(labels[0], labels[len(labels)-1], 0)
	if !sc.VerifyUpdateAggregate(key.Pub, full.Updates, full.Aggregate) {
		t.Fatal("served range aggregate must verify against the server key")
	}
}

func TestLogRangeUnsortedBackfill(t *testing.T) {
	sc, key, codec := fixtures(t)
	l := openCkptLog(t, t.TempDir(), codec)
	labels := minuteLabels(9)
	// Append out of order: forward publishes, then a backfill.
	order := []int{2, 3, 4, 5, 6, 7, 8, 0, 1}
	for _, i := range order {
		if err := l.Put(sc.IssueUpdate(key, labels[i])); err != nil {
			t.Fatal(err)
		}
	}
	checkRange(t, l, codec, labels[0], labels[8], 0)
	checkRange(t, l, codec, labels[1], labels[6], 3)
}

func TestLogCheckpointRestartRoundTrip(t *testing.T) {
	sc, key, codec := fixtures(t)
	dir := t.TempDir()
	labels := minuteLabels(10)

	l := openCkptLog(t, dir, codec)
	for _, lab := range labels {
		if err := l.Put(sc.IssueUpdate(key, lab)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := l.Range(labels[0], labels[9], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the replay rebuilds the same prefix aggregates Put built
	// and serves identical ranges.
	l2 := openCkptLog(t, dir, codec, WithVerifier(func(u core.KeyUpdate) bool {
		return sc.VerifyUpdate(key.Pub, u)
	}))
	if len(l2.ckpts) != 2 {
		t.Fatalf("restart: prefix aggregates = %d, want 2", len(l2.ckpts))
	}
	got, err := l2.Range(labels[0], labels[9], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !codec.Set.B.Equal(backend.G2, got.Aggregate, want.Aggregate) || got.Root != want.Root {
		t.Fatal("range served after restart differs")
	}
	// And appends keep aggregating where the old process left off.
	for _, lab := range minuteLabels(12)[10:] {
		if err := l2.Put(sc.IssueUpdate(key, lab)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l2.ckpts) != 3 {
		t.Fatalf("prefix aggregates after more appends = %d, want 3", len(l2.ckpts))
	}
	checkRange(t, l2, codec, labels[1], "2026-07-05T10:11:00Z", 0)
}

// TestLogOpensParentLayout is the upgrade path. testdata/parent_layout
// holds two archive directories written by the last version that kept a
// checkpoints.log sidecar (11 Test160 updates at interval 4, appended
// in order and with two backfilled at the end), plus the server key
// that signed them. The sidecar is no longer read or written: whatever
// state it is in, the directory must open to the same records, serve
// the same ranges as a direct recomputation, audit clean, and keep the
// stale file byte-for-byte (deleting it is the operator's call).
func TestLogOpensParentLayout(t *testing.T) {
	const sidecar = "checkpoints.log"
	sc, _, codec := fixtures(t)
	rawPub, err := os.ReadFile(filepath.Join("testdata", "parent_layout", "server.pub"))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := codec.UnmarshalServerPublicKey(rawPub)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(u core.KeyUpdate) bool { return sc.VerifyUpdate(pub, u) }
	labels := minuteLabels(11)

	for _, tc := range []struct {
		name   string
		mangle func(valid []byte) []byte
	}{
		{"valid sidecar", func(b []byte) []byte { return b }},
		{"torn sidecar", func(b []byte) []byte { return b[:len(b)-7] }},
		{"foreign-magic sidecar", func([]byte) []byte { return []byte("not a sidecar") }},
	} {
		for _, layout := range []string{"sorted", "backfilled"} {
			for _, tornTail := range []int64{0, 6} {
				t.Run(fmt.Sprintf("%s/%s/torn=%d", tc.name, layout, tornTail), func(t *testing.T) {
					dir := t.TempDir()
					for _, name := range []string{logName, sidecar} {
						raw, err := os.ReadFile(filepath.Join("testdata", "parent_layout", layout, name))
						if err != nil {
							t.Fatal(err)
						}
						switch {
						case name == sidecar:
							raw = tc.mangle(raw)
						case tornTail > 0: // crash mid-append after the last checkpoint
							raw = append(raw, []byte{0, 0, 0, 80, 'x', 'y'}[:tornTail]...)
						}
						if err := os.WriteFile(filepath.Join(dir, name), raw, 0o600); err != nil {
							t.Fatal(err)
						}
					}
					stale, _ := os.ReadFile(filepath.Join(dir, sidecar))

					l := openCkptLog(t, dir, codec, WithVerifier(verify))
					st := l.Stats()
					if st.Records != 11 || st.Verified != 11 || st.TornBytes != tornTail || st.Truncated != (tornTail > 0) {
						t.Fatalf("stats = %+v, want 11 verified records and %d torn bytes", st, tornTail)
					}
					if l.sorted != (layout == "sorted") {
						t.Fatalf("sorted = %v on the %s layout", l.sorted, layout)
					}
					// Whole log, across the aggregate boundaries at 4 and 8,
					// inside one interval, and a truncating limit.
					checkRange(t, l, codec, labels[0], labels[10], 0)
					checkRange(t, l, codec, labels[2], labels[9], 0)
					checkRange(t, l, codec, labels[5], labels[6], 0)
					if got := checkRange(t, l, codec, labels[1], labels[10], 5); got.Total != 10 {
						t.Fatalf("limited range total = %d, want 10", got.Total)
					}
					full, _ := l.Range(labels[0], labels[10], 0)
					if !sc.VerifyUpdateAggregate(pub, full.Updates, full.Aggregate) {
						t.Fatal("served range aggregate must verify against the parent's server key")
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}

					if rep, err := AuditDir(dir, codec, verify); err != nil || !rep.Clean() || len(rep.Records) != 11 {
						t.Fatalf("audit after open: %+v (%v), want 11 clean records", rep, err)
					}
					if now, err := os.ReadFile(filepath.Join(dir, sidecar)); err != nil || !bytes.Equal(now, stale) {
						t.Fatalf("stale sidecar was touched (%v): %d bytes, was %d", err, len(now), len(stale))
					}
				})
			}
		}
	}
}

// TestLogWritesParentFormat pins updates.log as a golden vector:
// re-appending the fixture's updates through today's Put produces the
// parent-written file byte for byte.
func TestLogWritesParentFormat(t *testing.T) {
	_, _, codec := fixtures(t)
	for _, layout := range []string{"sorted", "backfilled"} {
		want, err := os.ReadFile(filepath.Join("testdata", "parent_layout", layout, logName))
		if err != nil {
			t.Fatal(err)
		}
		src, dst := t.TempDir(), t.TempDir()
		if err := os.WriteFile(filepath.Join(src, logName), want, 0o600); err != nil {
			t.Fatal(err)
		}
		out := openCkptLog(t, dst, codec)
		for _, r := range openCkptLog(t, src, codec).recs {
			if err := out.Put(core.KeyUpdate{Label: r.label, Point: r.point}); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(filepath.Join(dst, logName)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: rewritten log differs from the parent-written one (%v)", layout, err)
		}
	}
}

func TestMerkleRootProperties(t *testing.T) {
	leaves := make([][32]byte, 0, 6)
	for i := 0; i < 6; i++ {
		leaves = append(leaves, LeafHash([]byte{byte(i)}))
	}
	if MerkleRoot(nil) != ([32]byte{}) {
		t.Fatal("empty forest must commit to the zero root")
	}
	if MerkleRoot(leaves[:1]) != leaves[0] {
		t.Fatal("single leaf is its own root")
	}
	// Order and membership sensitivity.
	root := MerkleRoot(leaves)
	swapped := append([][32]byte(nil), leaves...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if MerkleRoot(swapped) == root {
		t.Fatal("root must depend on leaf order")
	}
	if MerkleRoot(leaves[:5]) == root {
		t.Fatal("root must depend on membership")
	}
	// Input slice must not be clobbered by level folding.
	if leaves[1] != LeafHash([]byte{1}) {
		t.Fatal("MerkleRoot mutated its input")
	}
}

func TestLogRangeConcurrentWithPut(t *testing.T) {
	// Range computes its edge additions and Merkle tree on a snapshot,
	// outside the log mutex, so catch-up traffic cannot stall Put (the
	// publish path). Race-detector coverage: publishers and range
	// readers running together, with every returned range internally
	// consistent for the records it saw.
	sc, key, codec := fixtures(t)
	l := openCkptLog(t, t.TempDir(), codec)
	labels := minuteLabels(64)
	for _, lab := range labels[:8] {
		if err := l.Put(sc.IssueUpdate(key, lab)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, lab := range labels[8:] {
			if err := l.Put(sc.IssueUpdate(key, lab)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	b := codec.Set.B
	for i := 0; i < 50; i++ {
		res, err := l.Range(labels[0], labels[len(labels)-1], 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Updates) < 8 || res.Total != len(res.Updates) {
			t.Fatalf("snapshot range shape: %d updates, total %d", len(res.Updates), res.Total)
		}
		agg := curve.Infinity()
		leaves := make([][32]byte, len(res.Updates))
		for j, u := range res.Updates {
			agg = b.Add(backend.G2, agg, u.Point)
			leaves[j] = LeafHash(codec.MarshalKeyUpdate(u))
		}
		if !b.Equal(backend.G2, agg, res.Aggregate) || MerkleRoot(leaves) != res.Root {
			t.Fatal("concurrent range not internally consistent")
		}
	}
	<-done
}
