package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/wire"
)

// The durable archive is one FrameLog (framelog.go) of wire-encoded
// updates in a directory — the paper's "list of old key updates" (§3)
// and the only file the archive keeps:
//
//	file   = magic ‖ record…
//	magic  = "TRELOG1\n"                      (8 bytes)
//	record = u32 len ‖ payload ‖ u32 crc      (crc32-IEEE over len ‖ payload)
//
// The payload is the wire KeyUpdate encoding (docs/PROTOCOL.md). The
// integrity chain is layered: the CRC catches torn or bit-rotted
// records (structural damage → truncate and keep serving), while the
// pairing check ê(G, I_T) = ê(sG, H1(T)) run by OpenDir's verifier
// catches records an attacker rewrote wholesale, CRC included
// (cryptographic damage → refuse to serve). CRCs are not authentication;
// the pairing equation is.
//
// Everything the Log serves from is a Memory (archive.go) — the updates
// by label and the one ordered label index — rebuilt from those records
// on every open. Older versions also kept prefix sums of the points,
// and the oldest wrote them to a sidecar file next to the log
// (docs/PROTOCOL.md); nothing reads it any more, and a leftover one is
// ignored.

// logName is the log file inside an archive directory.
const logName = "updates.log"

// logMagic identifies (and versions) the on-disk format.
var logMagic = []byte("TRELOG1\n")

// RecoverStats describes what opening the log found and repaired.
type RecoverStats struct {
	Records   int           // intact records now served
	Verified  int           // records re-verified against the server key
	TornBytes int64         // bytes truncated from the tail
	Truncated bool          // whether a torn tail was dropped
	Elapsed   time.Duration // replay wall time
}

// Log is the durable archive: an append-only, checksummed log of
// published updates with an in-memory index. Safe for concurrent use.
type Log struct {
	mem    *Memory // every durable record; all reads are served from it
	codec  *wire.Codec
	verify func(core.KeyUpdate) bool // nil → structural checks only
	stats  RecoverStats              // what OpenDir found; fixed afterwards

	mu sync.Mutex // serialises appends; readers never take it
	fl *FrameLog
}

// LogOption configures a Log.
type LogOption func(*Log)

// WithVerifier makes OpenDir re-verify every replayed update (the
// paper's self-authentication check ê(G, I_T) = ê(sG, H1(T)) bound to
// the server key) before it is served. A record that fails is reported
// as ErrInvalidRecord — the archive refuses to serve it.
func WithVerifier(v func(core.KeyUpdate) bool) LogOption {
	return func(l *Log) { l.verify = v }
}

// OpenDir opens (or creates) the durable archive in dir and replays
// it, rebuilding the in-memory index, so a returned *Log is always
// consistent. A torn tail — short read, oversized length, checksum
// mismatch or undecodable payload — is truncated away and everything
// before it is kept, so a crash mid-append costs at most the record
// being written. With WithVerifier, every replayed update is re-checked
// against the server key; a checksummed record that fails is
// cryptographic (not crash) damage and aborts the open with
// ErrInvalidRecord, leaving the file untouched.
func OpenDir(dir string, codec *wire.Codec, opts ...LogOption) (*Log, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("archive: creating %s: %w", dir, err)
	}
	l := &Log{mem: NewMemory(), codec: codec}
	for _, o := range opts {
		o(l)
	}
	start := time.Now()
	fl, fstats, err := OpenFrameLog(filepath.Join(dir, logName), logMagic, func(offset int64, payload []byte) error {
		u, err := codec.UnmarshalKeyUpdate(payload)
		if err != nil {
			return fmt.Errorf("record decode: %w", err) // structural: the tail is torn here
		}
		if l.verify != nil {
			if !l.verify(u) {
				return fmt.Errorf("%w (label %q, offset %d)", ErrInvalidRecord, u.Label, offset)
			}
			l.stats.Verified++
		}
		if err := l.mem.Put(u); err != nil {
			// Two different checksummed updates for one label: rewritten, not torn.
			return fmt.Errorf("%w: replay at offset %d: %w", ErrInvalidRecord, offset, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.fl = fl
	l.stats.Records, l.stats.TornBytes, l.stats.Truncated = fstats.Records, fstats.TornBytes, fstats.Truncated
	l.stats.Elapsed = time.Since(start)
	return l, nil
}

// Put implements Archive, appending new records durably: the write is
// fsynced before the in-memory index (and therefore any reader) sees
// it, so a served update is always a durable update. A failed append
// may leave a torn tail on disk; it is never indexed, and the next
// OpenDir truncates it.
func (l *Log) Put(u core.KeyUpdate) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.mem.Get(u.Label); ok {
		return l.mem.Put(u) // dedupe/conflict check only; nothing to append
	}
	if err := l.fl.Append(l.codec.MarshalKeyUpdate(u)); err != nil {
		return err
	}
	return l.mem.Put(u)
}

// Get, Labels, Latest, Range and Len implement Archive from the index:
// every record in it is durable, so its answer is the log's.
func (l *Log) Get(label string) (core.KeyUpdate, bool) { return l.mem.Get(label) }
func (l *Log) Labels() []string                        { return l.mem.Labels() }
func (l *Log) Latest() (core.KeyUpdate, bool)          { return l.mem.Latest() }
func (l *Log) Len() int                                { return l.mem.Len() }
func (l *Log) Range(from, to string, limit int) (RangeResult, error) {
	return l.mem.Range(from, to, limit)
}

// Stats returns what OpenDir found.
func (l *Log) Stats() RecoverStats { return l.stats }

// Close releases the underlying file.
func (l *Log) Close() error { return l.fl.Close() }

var _ Archive = (*Log)(nil)

// AuditRecord is one record's offline-audit result.
type AuditRecord struct {
	Offset int64  // file offset of the record frame
	Label  string // decoded label ("" if undecodable)
	Err    error  // nil = structurally intact and (if checked) verified
}

// AuditReport is the outcome of replaying a log offline.
type AuditReport struct {
	Records   []AuditRecord // every intact record, plus one entry for a torn tail
	Torn      bool          // structural damage found (framing/checksum/decode)
	TornBytes int64         // bytes after the damage point
	Invalid   int           // intact records failing the verifier
}

// Clean reports whether the log replayed with no damage at all.
func (r AuditReport) Clean() bool { return !r.Torn && r.Invalid == 0 }

// AuditDir replays the log in dir without modifying it, classifying
// every record: intact, torn (structural damage — the file is reported
// from the first damaged byte, as OpenDir would truncate it) or
// invalid (checksummed but failing the verifier — cryptographic
// damage OpenDir refuses to serve). Operators and CI run this through
// `trectl archive verify`.
func AuditDir(dir string, codec *wire.Codec, verify func(core.KeyUpdate) bool) (AuditReport, error) {
	path := filepath.Join(dir, logName)
	if _, err := os.Stat(path); err != nil {
		// Unlike OpenDir, an audit of a directory with no log is a
		// mistyped -dir, not a fresh archive.
		return AuditReport{}, fmt.Errorf("archive: opening %s: %w", path, err)
	}
	var rep AuditReport
	stats, err := ReplayFrames(path, logMagic, func(offset int64, payload []byte) error {
		u, err := codec.UnmarshalKeyUpdate(payload)
		if err != nil {
			return fmt.Errorf("record decode: %w", err)
		}
		rec := AuditRecord{Offset: offset, Label: u.Label}
		if verify != nil && !verify(u) {
			rec.Err = ErrInvalidRecord
			rep.Invalid++
		}
		rep.Records = append(rep.Records, rec)
		return nil
	})
	if err != nil {
		return AuditReport{}, err
	}
	if stats.Truncated {
		rep.Torn, rep.TornBytes = true, stats.TornBytes
		rep.Records = append(rep.Records, AuditRecord{Offset: stats.End, Err: fmt.Errorf("torn: %w", stats.Damage)})
	}
	return rep, nil
}
