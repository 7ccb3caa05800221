package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// FrameLog is the one durable substrate under every server-side log:
// an append-only file of crc-framed records behind a caller-chosen
// magic. Every append is fsynced before it returns, and opening replays
// the intact prefix and truncates a torn tail instead of failing, so a
// crash mid-append (power loss, SIGKILL) costs at most the record being
// written. The update archive (updates.log, log.go) and the spend
// ledger (spend.log, internal/token) both persist through it; this
// file is the only code that frames, appends, replays or truncates.
// Payload semantics stay entirely with the caller via the replay
// callback.
//
//	file   = magic ‖ record…
//	record = u32 len ‖ payload ‖ u32 crc   (crc32-IEEE over len ‖ payload)
type FrameLog struct {
	mu sync.Mutex
	f  *os.File
}

// FrameLogStats describes what opening (or auditing) a frame log found.
type FrameLogStats struct {
	Records   int   // intact records replayed
	End       int64 // size of the intact prefix: the first damaged byte, or the file size when clean
	TornBytes int64 // bytes after End: truncated (Open) or unreadable (ReplayFrames)
	Truncated bool  // whether a torn tail was found
	Damage    error // why the replay stopped at End; nil when clean
}

// maxRecord bounds a single record; anything larger is structural
// corruption (a real update is a label plus one compressed point).
const maxRecord = 1 << 20

// ErrBadFrameMagic reports a file that does not start with the
// caller's magic — a different log format, not a torn one. It is never
// "repaired": the file was not ours to begin with.
var ErrBadFrameMagic = errors.New("archive: frame log has wrong magic")

// ErrInvalidRecord reports a record that is structurally intact
// (framing and checksum pass) but that the replay callback refuses on
// semantic grounds — for the update archive, an update failing the
// verifier: the log was rewritten, not torn. It is the one callback
// error the replay does not treat as a torn tail: opening aborts with
// it and leaves the file byte-for-byte as found.
var ErrInvalidRecord = errors.New("archive: record fails update verification")

// OpenFrameLog opens (creating if absent) the frame log at path and
// replays every intact record through replay, in append order, with
// its file offset. A record the callback rejects is treated exactly
// like a checksum failure — structural damage at that offset, so the
// file is truncated there and the log keeps serving the intact prefix —
// unless the error wraps ErrInvalidRecord, which aborts the open
// without touching the file. The returned log is ready for Append.
func OpenFrameLog(path string, magic []byte, replay func(offset int64, payload []byte) error) (*FrameLog, FrameLogStats, error) {
	// O_APPEND: every write lands at the end of the file wherever the
	// replay left the read position.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, FrameLogStats{}, fmt.Errorf("archive: opening frame log: %w", err)
	}
	stats, err := replayFrames(f, magic, replay)
	if err == nil {
		err = repairFrames(f, magic, stats)
	}
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	return &FrameLog{f: f}, stats, nil
}

// repairFrames makes the file end where the intact prefix ends, so the
// next append extends it: a fresh file gets the magic stamped before
// the first record, a torn tail is truncated away; either is fsynced.
func repairFrames(f *os.File, magic []byte, stats FrameLogStats) error {
	var err error
	switch {
	case stats.End == 0:
		_, err = f.Write(magic)
	case stats.Truncated:
		err = f.Truncate(stats.End)
	default:
		return nil
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return fmt.Errorf("archive: repairing frame log: %w", err)
	}
	return nil
}

// Append durably appends one record: the payload is framed,
// checksummed, written and fsynced before Append returns. A failed
// append may leave a torn tail; it is never acknowledged, and the next
// Open truncates it.
func (fl *FrameLog) Append(payload []byte) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.f == nil {
		return errors.New("archive: frame log is closed")
	}
	return appendFrame(fl.f, payload)
}

// Close releases the underlying file. Appends after Close fail.
func (fl *FrameLog) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.f == nil {
		return nil
	}
	err := fl.f.Close()
	fl.f = nil
	return err
}

// ReplayFrames reads the frame log at path without opening it for
// writing: every intact record is handed to fn with its file offset.
// A missing file is an empty log. Used by audits (`trectl archive
// verify`, `trectl tokens verify`) that must not mutate the file they
// are inspecting — torn tails are reported in the stats, never
// repaired.
func ReplayFrames(path string, magic []byte, fn func(offset int64, payload []byte) error) (FrameLogStats, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return FrameLogStats{}, nil
	}
	if err != nil {
		return FrameLogStats{}, fmt.Errorf("archive: opening frame log: %w", err)
	}
	defer f.Close()
	return replayFrames(f, magic, fn)
}

// replayFrames reads magic ‖ record… from the start of f, calling fn
// per intact record. An empty file is an empty log (End 0); any other
// magic mismatch is ErrBadFrameMagic. fn returning an error marks
// structural damage at that record, ending the replay there — except
// an error wrapping ErrInvalidRecord, which is returned as is so the
// caller refuses the file instead of repairing it.
func replayFrames(f *os.File, magic []byte, fn func(offset int64, payload []byte) error) (FrameLogStats, error) {
	var stats FrameLogStats
	info, err := f.Stat()
	if err != nil {
		return stats, fmt.Errorf("archive: stat frame log: %w", err)
	}
	size := info.Size()
	if size == 0 {
		return stats, nil
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(f, head); err != nil || !bytes.Equal(head, magic) {
		return stats, fmt.Errorf("%w: %s", ErrBadFrameMagic, f.Name())
	}
	stats.End = int64(len(magic))
	for stats.End < size {
		payload, err := readFrame(f, size-stats.End)
		if err == nil && fn != nil {
			if err = fn(stats.End, payload); errors.Is(err, ErrInvalidRecord) {
				return stats, err
			}
		}
		if err != nil {
			// Torn or corrupt from here on.
			stats.Truncated, stats.TornBytes, stats.Damage = true, size-stats.End, err
			break
		}
		stats.End += int64(4 + len(payload) + 4)
		stats.Records++
	}
	return stats, nil
}

// readFrame reads one crc-framed record (u32 len ‖ payload ‖ u32 crc)
// from r, of which remaining bytes are left in the file, and returns
// the payload. Any error means structural damage at this offset. The
// length prefix is checked against both maxRecord and the bytes
// actually left before anything is allocated, so a torn or hostile
// prefix cannot make the replay allocate more than the file holds.
func readFrame(r io.Reader, remaining int64) ([]byte, error) {
	var lenBuf, crcBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("record length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxRecord {
		return nil, errors.New("oversized record")
	}
	if int64(n)+8 > remaining {
		return nil, fmt.Errorf("record body: %w", io.ErrUnexpectedEOF)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("record body: %w", err)
	}
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("record checksum: %w", err)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(lenBuf[:]), crc32.IEEETable, payload)
	if crc != binary.BigEndian.Uint32(crcBuf[:]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// appendFrame durably appends one crc-framed payload to f.
func appendFrame(f *os.File, payload []byte) error {
	rec := make([]byte, 0, 4+len(payload)+4)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	if _, err := f.Write(rec); err != nil {
		return fmt.Errorf("archive: appending record: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("archive: syncing log: %w", err)
	}
	return nil
}
