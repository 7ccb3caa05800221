package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var testFrameMagic = []byte("TRETEST\n")

func TestFrameLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.log")
	fl, stats, err := OpenFrameLog(path, testFrameMagic, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Truncated {
		t.Fatalf("fresh log stats: %+v", stats)
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, p := range want {
		if err := fl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	fl.Close()

	var got [][]byte
	fl2, stats, err := OpenFrameLog(path, testFrameMagic, func(_ int64, p []byte) error {
		got = append(got, append([]byte{}, p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if stats.Records != len(want) || stats.Truncated {
		t.Fatalf("reopen stats: %+v", stats)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestFrameLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.log")
	fl, _, err := OpenFrameLog(path, testFrameMagic, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl.Append([]byte("keep"))
	fl.Append([]byte("lose"))
	fl.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o600); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	fl2, stats, err := OpenFrameLog(path, testFrameMagic, func(_ int64, p []byte) error {
		got = append(got, append([]byte{}, p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.Records != 1 || string(got[0]) != "keep" {
		t.Fatalf("torn recovery: stats %+v records %q", stats, got)
	}
	// Appends continue over the repaired tail and survive a reopen.
	if err := fl2.Append([]byte("again")); err != nil {
		t.Fatal(err)
	}
	fl2.Close()
	count := 0
	fl3, stats, err := OpenFrameLog(path, testFrameMagic, func(int64, []byte) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	fl3.Close()
	if stats.Truncated || count != 2 {
		t.Fatalf("post-repair reopen: stats %+v count %d", stats, count)
	}
}

func TestFrameLogCallbackRejectionTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.log")
	fl, _, err := OpenFrameLog(path, testFrameMagic, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl.Append([]byte("good"))
	fl.Append([]byte("bad-semantics"))
	fl.Close()

	fl2, stats, err := OpenFrameLog(path, testFrameMagic, func(_ int64, p []byte) error {
		if string(p) != "good" {
			return errors.New("rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fl2.Close()
	if !stats.Truncated || stats.Records != 1 {
		t.Fatalf("callback rejection: %+v", stats)
	}
}

func TestFrameLogInvalidRecordRefusesWithoutTruncating(t *testing.T) {
	// The one callback verdict that is NOT a torn tail: an error wrapping
	// ErrInvalidRecord aborts the open and leaves the file exactly as
	// found — including the intact records after the refused one.
	path := filepath.Join(t.TempDir(), "frames.log")
	fl, _, err := OpenFrameLog(path, testFrameMagic, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl.Append([]byte("good"))
	fl.Append([]byte("forged"))
	fl.Append([]byte("good again"))
	fl.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reject := func(off int64, p []byte) error {
		if string(p) == "forged" {
			return fmt.Errorf("%w (offset %d)", ErrInvalidRecord, off)
		}
		return nil
	}
	fl2, stats, err := OpenFrameLog(path, testFrameMagic, reject)
	if !errors.Is(err, ErrInvalidRecord) || fl2 != nil {
		t.Fatalf("open = %v, %v; want nil log and ErrInvalidRecord", fl2, err)
	}
	if stats.Records != 1 || stats.Truncated {
		t.Fatalf("stats at refusal: %+v, want 1 record replayed, nothing torn", stats)
	}
	if _, err := ReplayFrames(path, testFrameMagic, reject); !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("read-only replay = %v, want ErrInvalidRecord", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused open modified the file: %d bytes before, %d after", len(before), len(after))
	}
}

func TestFrameLogWrongMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.log")
	if err := os.WriteFile(path, []byte("NOTMINE\nxxxx"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFrameLog(path, testFrameMagic, nil); !errors.Is(err, ErrBadFrameMagic) {
		t.Fatalf("wrong magic: %v", err)
	}
}

func TestReplayFramesReadOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frames.log")
	// Missing file: empty stats, no error, no file created.
	stats, err := ReplayFrames(path, testFrameMagic, nil)
	if err != nil || stats.Records != 0 {
		t.Fatalf("missing file: %+v %v", stats, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("read-only replay created the file")
	}
}

// frame returns one well-formed record (u32 len ‖ payload ‖ u32 crc).
func frame(payload []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
}

// FuzzFrameReplay hammers the one replay loop every durable log goes
// through with arbitrary file contents: it must never panic or hand out
// a payload past maxRecord, the repairing open and the read-only replay
// must agree on what is intact and where the damage starts, and a
// repaired file must replay clean. The checked-in corpus
// (testdata/fuzz/FuzzFrameReplay) seeds the damage shapes: a clean log,
// a short length prefix, a bad crc, a length past maxRecord and a
// truncated magic.
func FuzzFrameReplay(f *testing.F) {
	clean := append(append(append([]byte{}, testFrameMagic...), frame([]byte("one"))...), frame([]byte("two"))...)
	f.Add(clean)
	f.Add(append(clean, frame([]byte{0xFF, 'n', 'o'})...)) // intact frame the callback rejects
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "frames.log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		// A payload starting 0xFF is "undecodable": the callback's way of
		// reporting structural damage the checksum cannot see.
		var seen [][]byte
		size := int64(len(data))
		cb := func(off int64, p []byte) error {
			if len(p) > maxRecord || off < int64(len(testFrameMagic)) || off+int64(len(p))+8 > size {
				t.Fatalf("replay handed out %d bytes at offset %d of a %d-byte file", len(p), off, size)
			}
			if len(p) > 0 && p[0] == 0xFF {
				return errors.New("undecodable")
			}
			seen = append(seen, p)
			return nil
		}
		audit, auditErr := ReplayFrames(path, testFrameMagic, cb)
		audited := seen
		seen = nil
		fl, opened, openErr := OpenFrameLog(path, testFrameMagic, cb)
		if (auditErr == nil) != (openErr == nil) {
			t.Fatalf("audit err %v, open err %v", auditErr, openErr)
		}
		if openErr != nil {
			if !errors.Is(openErr, ErrBadFrameMagic) || !errors.Is(auditErr, ErrBadFrameMagic) {
				t.Fatalf("unexpected errors: audit %v, open %v", auditErr, openErr)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, data) {
				t.Fatal("a refused file was modified")
			}
			return
		}
		if audit.Records != opened.Records || audit.End != opened.End ||
			audit.TornBytes != opened.TornBytes || audit.Truncated != opened.Truncated {
			t.Fatalf("audit %+v and open %+v disagree", audit, opened)
		}
		if len(audited) != audit.Records || len(seen) != opened.Records {
			t.Fatalf("callbacks saw %d/%d records, stats say %d", len(audited), len(seen), audit.Records)
		}
		if opened.End+opened.TornBytes != int64(len(data)) || opened.Truncated != (opened.TornBytes > 0) {
			t.Fatalf("stats %+v do not partition a %d-byte file", opened, len(data))
		}
		// Appends extend the intact prefix, and the repaired file replays
		// clean with exactly the surviving records plus the new one.
		if err := fl.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		seen, size = nil, max(opened.End, int64(len(testFrameMagic)))+int64(len(frame([]byte("appended"))))
		again, err := ReplayFrames(path, testFrameMagic, cb)
		if err != nil || again.Truncated || again.End != size || again.Records != opened.Records+1 {
			t.Fatalf("replay after repair: %+v (%v), want %d clean records", again, err, opened.Records+1)
		}
		for i, p := range audited {
			if !bytes.Equal(seen[i], p) {
				t.Fatalf("record %d changed across the repair", i)
			}
		}
	})
}
