package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
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

// openLog opens a Log that is closed with the test.
func openLog(t *testing.T, dir string, codec *wire.Codec, opts ...LogOption) *Log {
	t.Helper()
	l, err := OpenDir(dir, codec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// naiveRange is the oracle for the one Range implementation:
// filter, sort and truncate over nothing but Labels() and Get.
func naiveRange(t *testing.T, a Archive, from, to string, limit int) RangeResult {
	t.Helper()
	var match []string
	for _, l := range a.Labels() {
		if l >= from && l <= to {
			match = append(match, l)
		}
	}
	sort.Strings(match)
	res := RangeResult{Total: len(match)}
	if limit > 0 && len(match) > limit {
		match = match[:limit]
	}
	for _, l := range match {
		u, ok := a.Get(l)
		if !ok {
			t.Fatalf("label %s listed but not served", l)
		}
		res.Updates = append(res.Updates, u)
	}
	return res
}

// checkRange asserts a.Range agrees exactly with the naive oracle and
// leaves the two reserved fields zero.
func checkRange(t *testing.T, a Archive, codec *wire.Codec, from, to string, limit int) RangeResult {
	t.Helper()
	got, err := a.Range(from, to, limit)
	if err != nil {
		t.Fatalf("Range(%s, %s, %d): %v", from, to, limit, err)
	}
	want := naiveRange(t, a, from, to, limit)
	b := codec.Set.B
	if got.Total != want.Total || len(got.Updates) != len(want.Updates) {
		t.Fatalf("Range(%s, %s, %d) shape: got %d/%d, want %d/%d", from, to, limit, len(got.Updates), got.Total, len(want.Updates), want.Total)
	}
	for i := range got.Updates {
		if got.Updates[i].Label != want.Updates[i].Label || !b.Equal(backend.G2, got.Updates[i].Point, want.Updates[i].Point) {
			t.Fatalf("Range(%s, %s, %d): update %d differs", from, to, limit, i)
		}
	}
	if !got.Aggregate.Equal(curve.Infinity()) || got.Root != ([32]byte{}) {
		t.Fatal("an archive must not compute the reserved aggregate or root")
	}
	return got
}

// TestRangeMatchesNaiveOracle is the property test for the one range
// implementation: a seeded random Put order with backfills, duplicates
// and one conflicting update, then random (from, to, limit) windows
// against filter-sort-truncate over Labels()+Get — on Memory, and on a
// Log before and after a close/reopen.
func TestRangeMatchesNaiveOracle(t *testing.T) {
	for _, preset := range bothBackends {
		t.Run(preset, func(t *testing.T) {
			sc, key, codec := fixturesOn(t, preset)
			rng := rand.New(rand.NewSource(22))
			labels := minuteLabels(40)
			ups := make([]core.KeyUpdate, len(labels))
			for i, l := range labels {
				ups[i] = sc.IssueUpdate(key, l)
			}
			// A forward run (the publish pattern), then the rest in random
			// order (backfills), with every third update put twice.
			order := rng.Perm(len(labels))
			sort.Ints(order[:12])
			dir := t.TempDir()
			log := openLog(t, dir, codec)
			mem := NewMemory()
			archives := map[string]Archive{"Memory": mem, "Log": log}
			for name, a := range archives {
				for n, i := range order {
					if i%5 == 4 {
						continue // left out: the archive is sparse
					}
					for puts := 0; puts < 1+n%3/2; puts++ {
						if err := a.Put(ups[i]); err != nil {
							t.Fatalf("%s: Put(%s): %v", name, labels[i], err)
						}
					}
				}
				before := a.Labels()
				conflict := core.KeyUpdate{Label: labels[7], Point: ups[8].Point}
				if err := a.Put(conflict); !errors.Is(err, ErrConflict) {
					t.Fatalf("%s: conflicting Put: err = %v, want ErrConflict", name, err)
				}
				if after := a.Labels(); fmt.Sprint(after) != fmt.Sprint(before) || a.Len() != len(before) {
					t.Fatalf("%s: a refused Put changed the index", name)
				}
				if u, _ := a.Get(labels[7]); !codec.Set.B.Equal(backend.G2, u.Point, ups[7].Point) {
					t.Fatalf("%s: a refused Put replaced the stored update", name)
				}
			}

			// Window ends are archived labels, missing labels, and strings
			// before, between and after every label.
			ends := append([]string{"", "2026-07-05T10:07:30Z", "2026-07-05T10:1", "9"}, labels...)
			type window struct {
				from, to string
				limit    int
			}
			windows := []window{
				{labels[0], labels[len(labels)-1], 0}, // everything
				{labels[5], labels[5], 0},             // one archived label
				{labels[4], labels[4], 0},             // one missing label
				{"2020", "2021", 0},                   // before everything
				{labels[0], labels[len(labels)-1], 5}, // truncation keeps the oldest
				{labels[0], labels[len(labels)-1], 1000},
			}
			for len(windows) < 300 {
				w := window{ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))], rng.Intn(12)}
				if w.from > w.to {
					w.from, w.to = w.to, w.from
				}
				windows = append(windows, w)
			}
			check := func(name string, a Archive) {
				for _, w := range windows {
					checkRange(t, a, codec, w.from, w.to, w.limit)
				}
				if got := checkRange(t, a, codec, labels[0], labels[len(labels)-1], 5); got.Total != 32 || got.Updates[0].Label != labels[0] {
					t.Fatalf("%s: limited range = %d of %d from %s, want the OLDEST 5 of 32", name, len(got.Updates), got.Total, got.Updates[0].Label)
				}
				if _, err := a.Range(labels[3], labels[1], 0); !errors.Is(err, ErrBadRange) {
					t.Fatalf("%s: inverted range: err = %v, want ErrBadRange", name, err)
				}
				if _, err := RangeOf(a, codec, labels[3], labels[1], 0); !errors.Is(err, ErrBadRange) {
					t.Fatalf("%s: inverted RangeOf: err = %v, want ErrBadRange", name, err)
				}
				last, ok := a.Latest()
				if all := a.Labels(); !ok || last.Label != all[len(all)-1] {
					t.Fatalf("%s: Latest = %q, %v; want %q", name, last.Label, ok, all[len(all)-1])
				}
			}
			for name, a := range archives {
				check(name, a)
			}

			// The index is rebuilt from the records alone: a reopened log
			// (records in append order, not label order) serves the same.
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := openLog(t, dir, codec, WithVerifier(func(u core.KeyUpdate) bool {
				return sc.VerifyUpdate(key.Pub, u)
			}))
			if reopened.Len() != mem.Len() {
				t.Fatalf("reopened log holds %d updates, want %d", reopened.Len(), mem.Len())
			}
			check("reopened Log", reopened)
		})
	}
	if _, ok := NewMemory().Latest(); ok {
		t.Fatal("an empty archive has no latest update")
	}
}

// TestRangeOfTagsReservedFields pins what every /v1/catchup body now
// ends in. RangeOf must hand the codec the backend's own identity — a
// zero curve.Point has no handle for the BLS12-381 encoder to unwrap —
// and the body keeps the layout and length it had while the two fields
// were computed: 8 header bytes, the updates, one G2 point, 32 bytes.
func TestRangeOfTagsReservedFields(t *testing.T) {
	for _, preset := range bothBackends {
		sc, key, codec := fixturesOn(t, preset)
		labels := minuteLabels(48)
		for _, n := range []int{0, 1, 48} {
			archives := map[string]Archive{"Memory": NewMemory(), "Log": openLog(t, t.TempDir(), codec)}
			for name, a := range archives {
				t.Run(fmt.Sprintf("%s/%s/%d", name, preset, n), func(t *testing.T) {
					wantLen := 8 + codec.Set.B.PointLen(backend.G2) + 32
					for _, l := range labels[:n] {
						u := sc.IssueUpdate(key, l)
						if err := a.Put(u); err != nil {
							t.Fatal(err)
						}
						wantLen += len(codec.MarshalKeyUpdate(u))
					}
					res, err := RangeOf(a, codec, labels[0], labels[len(labels)-1], 0)
					if err != nil {
						t.Fatal(err)
					}
					body := codec.MarshalCatchUpResponse(wire.CatchUpResponse{
						Total: res.Total, Updates: res.Updates, Aggregate: res.Aggregate, Root: res.Root})
					if len(body) != wantLen {
						t.Fatalf("body is %d bytes, want %d as at the parent", len(body), wantLen)
					}
					identity := codec.MarshalKeyUpdate(core.KeyUpdate{Point: codec.Set.B.Infinity(backend.G2)})[2:]
					if tail := append(identity, make([]byte, 32)...); !bytes.HasSuffix(body, tail) {
						t.Fatal("body must end in the identity encoding and 32 zero bytes")
					}
					page, err := codec.UnmarshalCatchUpResponse(body)
					if err != nil {
						t.Fatalf("round trip: %v", err)
					}
					if page.Total != n || len(page.Updates) != n || !page.Aggregate.IsInfinity() || page.Root != ([32]byte{}) {
						t.Fatalf("round trip: %d of %d updates, aggregate identity %v", len(page.Updates), page.Total, page.Aggregate.IsInfinity())
					}
					for i, u := range page.Updates {
						if u.Label != labels[i] || !codec.Set.B.Equal(backend.G2, u.Point, res.Updates[i].Point) {
							t.Fatalf("round trip: update %d differs", i)
						}
					}
				})
			}
		}
	}
}

// TestLogOpensParentLayout is the upgrade path. testdata/parent_layout
// holds two archive directories written by the last version that kept a
// checkpoints.log sidecar (11 Test160 updates at interval 4, appended
// in order and with two backfilled at the end), plus the server key
// that signed them. The sidecar is no longer read or written: whatever
// state it is in, the directory must open to the same records, serve
// the same ranges as the naive oracle, audit clean, and keep the
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

					l := openLog(t, dir, codec, WithVerifier(verify))
					st := l.Stats()
					if st.Records != 11 || st.Verified != 11 || st.TornBytes != tornTail || st.Truncated != (tornTail > 0) {
						t.Fatalf("stats = %+v, want 11 verified records and %d torn bytes", st, tornTail)
					}
					// Whole log, across the parent's aggregate boundaries at 4
					// and 8, inside one interval, and a truncating limit.
					checkRange(t, l, codec, labels[0], labels[10], 0)
					checkRange(t, l, codec, labels[2], labels[9], 0)
					checkRange(t, l, codec, labels[5], labels[6], 0)
					if got := checkRange(t, l, codec, labels[1], labels[10], 5); got.Total != 10 {
						t.Fatalf("limited range total = %d, want 10", got.Total)
					}
					full, _ := l.Range(labels[0], labels[10], 0)
					if ok, err := sc.VerifyUpdateBatch(pub, full.Updates); !ok || err != nil {
						t.Fatalf("served range must verify against the parent's server key (%v)", err)
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
		out := openLog(t, dst, codec)
		// Re-append in the source file's record order, not label order.
		if _, err := ReplayFrames(filepath.Join(src, logName), logMagic, func(_ int64, payload []byte) error {
			u, err := codec.UnmarshalKeyUpdate(payload)
			if err != nil {
				return err
			}
			return out.Put(u)
		}); err != nil {
			t.Fatal(err)
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
	// Range reads the index under its read lock only — never the log
	// mutex Put holds across its fsync — so catch-up traffic cannot
	// stall the publish path. Race-detector coverage: a publisher and
	// range readers running together, with every returned page a
	// consistent snapshot of the records it saw.
	sc, key, codec := fixtures(t)
	l := openLog(t, t.TempDir(), codec)
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
		// Publishes arrive in label order, so a snapshot is a prefix.
		for j, u := range res.Updates {
			stored, ok := l.Get(u.Label)
			if u.Label != labels[j] || !ok || !b.Equal(backend.G2, u.Point, stored.Point) {
				t.Fatal("concurrent range not internally consistent")
			}
		}
	}
	<-done
}

// benchMemory returns a Memory of n minute-epoch labels; the index
// never looks at a point, so one signed point serves them all.
func benchMemory(b *testing.B, n int) (*Memory, []string) {
	b.Helper()
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	pt := sc.IssueUpdate(key, "bench").Point
	a, labels := NewMemory(), make([]string, n)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range labels {
		labels[i] = start.Add(time.Duration(i) * time.Minute).Format(time.RFC3339)
		if err := a.Put(core.KeyUpdate{Label: labels[i], Point: pt}); err != nil {
			b.Fatal(err)
		}
	}
	return a, labels
}

// BenchmarkLatest and BenchmarkRange run at two archive sizes a
// hundredfold apart: the per-call cost must not follow the size (Latest
// is O(1), a 48-update page is two binary searches and the copy).
func BenchmarkLatest(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("labels=%d", n), func(b *testing.B) {
			a, labels := benchMemory(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if u, ok := a.Latest(); !ok || u.Label != labels[n-1] {
					b.Fatal("wrong latest")
				}
			}
		})
	}
}

func BenchmarkRange(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("48-of-%d", n), func(b *testing.B) {
			a, labels := benchMemory(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * 7919) % (n - 48)
				if res, err := a.Range(labels[lo], labels[lo+47], 0); err != nil || len(res.Updates) != 48 {
					b.Fatal("wrong page")
				}
			}
		})
	}
}
