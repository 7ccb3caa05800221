package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

func fixtures(t *testing.T) (*core.Scheme, *core.ServerKeyPair, *wire.Codec) {
	t.Helper()
	return fixturesOn(t, "Test160")
}

// bothBackends names one symmetric and one asymmetric preset: points
// of the latter carry no X/Y, so anything comparing points must be
// exercised on both.
var bothBackends = []string{"Test160", params.PresetBLS12381}

func fixturesOn(t *testing.T, preset string) (*core.Scheme, *core.ServerKeyPair, *wire.Codec) {
	t.Helper()
	set := params.MustPreset(preset)
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc, key, wire.NewCodec(set)
}

func testArchiveContract(t *testing.T, a Archive, sc *core.Scheme, key *core.ServerKeyPair) {
	t.Helper()
	labels := []string{
		"2026-07-05T10:00:00Z",
		"2026-07-05T11:00:00Z",
		"2026-07-05T12:00:00Z",
	}
	// Insert out of order; Labels() must sort.
	for _, i := range []int{2, 0, 1} {
		if err := a.Put(sc.IssueUpdate(key, labels[i])); err != nil {
			t.Fatalf("Put(%s): %v", labels[i], err)
		}
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	got := a.Labels()
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("Labels()[%d] = %q, want %q", i, got[i], labels[i])
		}
	}
	u, ok := a.Get(labels[1])
	if !ok || u.Label != labels[1] {
		t.Fatalf("Get(%s): %v %v", labels[1], u, ok)
	}
	if _, ok := a.Get("2030-01-01T00:00:00Z"); ok {
		t.Fatal("Get of unpublished label must miss")
	}
	// Idempotent re-put.
	if err := a.Put(sc.IssueUpdate(key, labels[0])); err != nil {
		t.Fatalf("idempotent Put: %v", err)
	}
	if a.Len() != 3 {
		t.Fatalf("Len after re-put = %d", a.Len())
	}
	// Conflicting update for the same label is rejected (a valid point
	// of the update group on either backend, just not this label's).
	conflict := core.KeyUpdate{Label: labels[0], Point: sc.IssueUpdate(key, labels[1]).Point}
	if err := a.Put(conflict); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting Put: err=%v, want ErrConflict", err)
	}
}

func TestMemoryArchive(t *testing.T) {
	for _, preset := range bothBackends {
		t.Run(preset, func(t *testing.T) {
			sc, key, _ := fixturesOn(t, preset)
			testArchiveContract(t, NewMemory(), sc, key)
		})
	}
}

func TestLogArchive(t *testing.T) {
	for _, preset := range bothBackends {
		t.Run(preset, func(t *testing.T) { testLogArchive(t, preset) })
	}
}

func testLogArchive(t *testing.T, preset string) {
	sc, key, codec := fixturesOn(t, preset)
	dir := t.TempDir()
	a, err := OpenDir(dir, codec)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	testArchiveContract(t, a, sc, key)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with a verifier: everything must be back and re-verified.
	b, err := OpenDir(dir, codec, WithVerifier(func(u core.KeyUpdate) bool {
		return sc.VerifyUpdate(key.Pub, u)
	}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.Close()
	if b.Len() != 3 {
		t.Fatalf("Len after reopen = %d, want 3", b.Len())
	}
	stats := b.Stats()
	if stats.Records != 3 || stats.Verified != 3 || stats.Truncated {
		t.Fatalf("recover stats = %+v, want 3 records, 3 verified, no truncation", stats)
	}
	for _, l := range b.Labels() {
		u, ok := b.Get(l)
		if !ok {
			t.Fatalf("lost update %s", l)
		}
		if !sc.VerifyUpdate(key.Pub, u) {
			t.Fatalf("update %s no longer verifies after reload", l)
		}
	}
	// Appending after reopen must work.
	if err := b.Put(sc.IssueUpdate(key, "2026-07-05T13:00:00Z")); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}

// putUpdates writes updates signed by key into dir's log and returns
// the log path.
func putUpdates(t *testing.T, sc *core.Scheme, key *core.ServerKeyPair, codec *wire.Codec, dir string, labels ...string) string {
	t.Helper()
	a, err := OpenDir(dir, codec)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if err := a.Put(sc.IssueUpdate(key, l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, logName)
}

func TestLogRecoverTruncatesTornTail(t *testing.T) {
	sc, key, codec := fixtures(t)
	labels := []string{"2026-07-05T10:00:00Z", "2026-07-05T11:00:00Z", "2026-07-05T12:00:00Z"}
	dir := t.TempDir()
	path := putUpdates(t, sc, key, codec, dir, labels...)

	// Simulate a crash mid-append: cut the last record short.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	a, err := OpenDir(dir, codec, WithVerifier(func(u core.KeyUpdate) bool {
		return sc.VerifyUpdate(key.Pub, u)
	}))
	if err != nil {
		t.Fatalf("recovery over torn log: %v", err)
	}
	defer a.Close()
	stats := a.Stats()
	if !stats.Truncated || stats.TornBytes == 0 {
		t.Fatalf("stats = %+v, want a truncated tail", stats)
	}
	if a.Len() != 2 {
		t.Fatalf("Len after torn-tail recovery = %d, want 2", a.Len())
	}
	if _, ok := a.Get(labels[2]); ok {
		t.Fatal("torn record must not be served")
	}
	// The surviving prefix still verifies and the log accepts appends —
	// including re-publishing the label whose record was torn.
	if err := a.Put(sc.IssueUpdate(key, labels[2])); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}

	// After the repair + re-append, a reopen sees all three.
	a.Close()
	b, err := OpenDir(dir, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != 3 {
		t.Fatalf("Len after repair = %d, want 3", b.Len())
	}
}

func TestLogRecoverTruncatesCorruptedChecksum(t *testing.T) {
	sc, key, codec := fixtures(t)
	dir := t.TempDir()
	path := putUpdates(t, sc, key, codec, dir, "2026-07-05T10:00:00Z", "2026-07-05T11:00:00Z")

	// Flip one bit inside the SECOND record's payload: the CRC catches
	// it, and recovery keeps the first record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(raw) - len(logMagic)) / 2
	raw[len(logMagic)+recLen+10] ^= 0x01
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	a, err := OpenDir(dir, codec)
	if err != nil {
		t.Fatalf("recovery over bit-rotted log: %v", err)
	}
	defer a.Close()
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (second record dropped)", a.Len())
	}
	stats := a.Stats()
	if !stats.Truncated || stats.TornBytes != int64(recLen) {
		t.Fatalf("stats = %+v, want %d torn bytes", stats, recLen)
	}
}

func TestLogRecoverRejectsForgedRecord(t *testing.T) {
	// A record whose framing and CRC are intact but whose point was not
	// signed by the server key is cryptographic damage: with a verifier,
	// recovery must refuse to serve the archive rather than repair it.
	sc, key, codec := fixtures(t)
	dir := t.TempDir()
	putUpdates(t, sc, key, codec, dir, "2026-07-05T10:00:00Z")

	impostor, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Append the forged record through the log itself (valid framing),
	// then an honest one after it, so "truncate at the bad record" would
	// visibly lose data.
	a, err := OpenDir(dir, codec)
	if err != nil {
		t.Fatal(err)
	}
	forgedLabel := "2026-07-05T11:00:00Z"
	if err := a.Put(sc.IssueUpdate(impostor, forgedLabel)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(sc.IssueUpdate(key, "2026-07-05T12:00:00Z")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	path := filepath.Join(dir, logName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenDir(dir, codec, WithVerifier(func(u core.KeyUpdate) bool {
		return sc.VerifyUpdate(key.Pub, u)
	}))
	if !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("err = %v, want ErrInvalidRecord", err)
	}
	if err == nil || !strings.Contains(err.Error(), forgedLabel) {
		t.Fatalf("error %v does not name the forged label", err)
	}
	// Refuse, never repair: cryptographic damage is evidence, and the
	// file must be byte-for-byte what the operator will inspect.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused open modified the log: %d bytes before, %d after", len(before), len(after))
	}
	// Without a verifier the structural checks alone accept it — which
	// is exactly why treserver always installs one.
	b, err := OpenDir(dir, codec)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
}

func TestLogRejectsForeignFile(t *testing.T) {
	_, _, codec := fixtures(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("not an update log at all"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, codec); !errors.Is(err, ErrBadFrameMagic) {
		t.Fatalf("err = %v, want ErrBadFrameMagic", err)
	}
}

func TestAuditDir(t *testing.T) {
	sc, key, codec := fixtures(t)
	verify := func(u core.KeyUpdate) bool { return sc.VerifyUpdate(key.Pub, u) }

	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		putUpdates(t, sc, key, codec, dir, "2026-07-05T10:00:00Z", "2026-07-05T11:00:00Z")
		rep, err := AuditDir(dir, codec, verify)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() || len(rep.Records) != 2 {
			t.Fatalf("report = %+v, want 2 clean records", rep)
		}
	})

	t.Run("torn", func(t *testing.T) {
		dir := t.TempDir()
		path := putUpdates(t, sc, key, codec, dir, "2026-07-05T10:00:00Z", "2026-07-05T11:00:00Z")
		info, _ := os.Stat(path)
		if err := os.Truncate(path, info.Size()-5); err != nil {
			t.Fatal(err)
		}
		rep, err := AuditDir(dir, codec, verify)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() || !rep.Torn || rep.TornBytes == 0 {
			t.Fatalf("report = %+v, want torn", rep)
		}
		// Audit must NOT repair: the file is unchanged.
		after, _ := os.Stat(path)
		if after.Size() != info.Size()-5 {
			t.Fatal("audit modified the log")
		}
	})

	t.Run("invalid", func(t *testing.T) {
		dir := t.TempDir()
		putUpdates(t, sc, key, codec, dir, "2026-07-05T10:00:00Z")
		impostor, err := sc.ServerKeyGen(nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := OpenDir(dir, codec)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Put(sc.IssueUpdate(impostor, "2026-07-05T11:00:00Z")); err != nil {
			t.Fatal(err)
		}
		a.Close()
		rep, err := AuditDir(dir, codec, verify)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() || rep.Invalid != 1 || rep.Torn {
			t.Fatalf("report = %+v, want exactly one invalid record", rep)
		}
	})
}

// TestMemoryLabelsOrderingContract pins the documented Labels()
// contract: a fresh lexicographically-sorted snapshot on every call,
// which for canonical RFC 3339 labels is chronological order, even
// under interleaved inserts in adversarial order.
func TestMemoryLabelsOrderingContract(t *testing.T) {
	sc, key, _ := fixtures(t)
	a := NewMemory()
	labels := []string{
		"2026-07-05T23:59:00Z",
		"2026-07-05T00:00:00Z",
		"2026-12-31T00:00:00Z",
		"2026-07-05T12:00:00Z",
		"2025-01-01T00:00:00Z",
		"2026-07-05T12:00:30Z",
	}
	want := make([]string, 0, len(labels))
	for i, l := range labels {
		if err := a.Put(sc.IssueUpdate(key, l)); err != nil {
			t.Fatal(err)
		}
		want = append(want, l)
		sort.Strings(want)
		got := a.Labels()
		if len(got) != len(want) {
			t.Fatalf("after %d puts: %d labels, want %d", i+1, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("after %d puts: Labels()[%d] = %q, want %q", i+1, j, got[j], want[j])
			}
		}
		// The snapshot must be FRESH: mutating it cannot corrupt the
		// archive's own state.
		if len(got) > 0 {
			got[0] = "mutated"
			if a.Labels()[0] == "mutated" {
				t.Fatal("Labels() returned shared state")
			}
		}
	}
	// Chronological == lexicographic for canonical labels: verify the
	// sorted sequence parses to non-decreasing instants.
	sorted := a.Labels()
	var prev time.Time
	for i, l := range sorted {
		ts, err := time.Parse(time.RFC3339, l)
		if err != nil {
			t.Fatalf("label %q not RFC 3339: %v", l, err)
		}
		if i > 0 && ts.Before(prev) {
			t.Fatalf("labels out of chronological order: %q before %q", sorted[i-1], l)
		}
		prev = ts
	}
}

func TestMemoryArchiveConcurrent(t *testing.T) {
	sc, key, _ := fixtures(t)
	a := NewMemory()
	done := make(chan struct{})
	labels := []string{"a", "b", "c", "d"}
	ups := make([]core.KeyUpdate, len(labels))
	for i, l := range labels {
		ups[i] = sc.IssueUpdate(key, l)
	}
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				if err := a.Put(ups[i%len(ups)]); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				a.Get(labels[j%len(labels)])
				a.Labels()
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if a.Len() != len(labels) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(labels))
	}
}
