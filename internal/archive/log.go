package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
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
// Everything else the Log serves from — the label index, the per-record
// Merkle leaves, the prefix aggregates behind Range — is in-memory
// state rebuilt from those records on every open. Older versions also
// wrote the prefix aggregates to a sidecar file next to the log
// (docs/PROTOCOL.md); nothing reads it any more, and a leftover one is
// ignored.

// logName is the log file inside an archive directory.
const logName = "updates.log"

// logMagic identifies (and versions) the on-disk format.
var logMagic = []byte("TRELOG1\n")

// checkpointInterval is how many records each in-memory prefix
// aggregate covers: 256 keeps range aggregation under ~512 point
// additions however long the range is, while a year of minute epochs
// needs only ~2k aggregates.
const checkpointInterval = 256

// RecoverStats describes what opening the log found and repaired.
type RecoverStats struct {
	Records   int           // intact records now served
	Verified  int           // records re-verified against the server key
	TornBytes int64         // bytes truncated from the tail
	Truncated bool          // whether a torn tail was dropped
	Elapsed   time.Duration // replay wall time
}

// recMeta is the in-memory per-record state behind range serving: the
// label, the signature point and the Merkle leaf of the record's wire
// payload, in append order.
type recMeta struct {
	label string
	point curve.Point
	leaf  [32]byte
}

// Log is the durable archive: an append-only, checksummed log of
// published updates with an in-memory index. Safe for concurrent use.
type Log struct {
	mem      *Memory
	codec    *wire.Codec
	verify   func(core.KeyUpdate) bool // nil → structural checks only
	interval int                       // records per prefix aggregate (checkpointInterval)
	stats    RecoverStats              // what OpenDir found; fixed afterwards

	mu sync.Mutex // serialises appends; Range only snapshots under it
	fl *FrameLog

	// Range-serving state, maintained by index. recs and ckpts are
	// append-only, so Range can snapshot their headers under mu and
	// compute outside it.
	recs   []recMeta     // every intact record, append order
	ckpts  []curve.Point // ckpts[k] = Σ points of recs[:(k+1)·interval]
	agg    curve.Point   // running aggregate over recs
	sorted bool          // recs are in ascending label order
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
	l := &Log{mem: NewMemory(), codec: codec, interval: checkpointInterval,
		agg: codec.Set.B.Infinity(backend.G2), sorted: true}
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
		if err := l.index(u, payload); err != nil {
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

// index admits one durable record to the in-memory state: the label
// index, the record list and the prefix aggregates. Called under l.mu
// by Put once the record is fsynced, and by OpenDir's replay before
// the Log is shared — both build the serving state the same way.
func (l *Log) index(u core.KeyUpdate, payload []byte) error {
	if err := l.mem.Put(u); err != nil {
		return err
	}
	if n := len(l.recs); n > 0 && l.recs[n-1].label >= u.Label {
		l.sorted = false
	}
	l.recs = append(l.recs, recMeta{label: u.Label, point: u.Point, leaf: LeafHash(payload)})
	l.agg = l.codec.Set.B.Add(backend.G2, l.agg, u.Point)
	if len(l.recs)%l.interval == 0 {
		l.ckpts = append(l.ckpts, l.agg)
	}
	return nil
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
	payload := l.codec.MarshalKeyUpdate(u)
	if err := l.fl.Append(payload); err != nil {
		return err
	}
	return l.index(u, payload)
}

// Get implements Archive.
func (l *Log) Get(label string) (core.KeyUpdate, bool) { return l.mem.Get(label) }

// Labels implements Archive.
func (l *Log) Labels() []string { return l.mem.Labels() }

// Len implements Archive.
func (l *Log) Len() int { return l.mem.Len() }

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
