package token

import (
	"fmt"
	"path/filepath"
	"sync"

	"timedrelease/internal/archive"
)

// SpendLogName is the durable double-spend sidecar inside a server's
// archive directory.
const SpendLogName = "spend.log"

// spendMagic identifies (and versions) the spend-log format. Same
// framing as the update log (docs/PROTOCOL.md), different magic: a
// spend log can never be mistaken for an update log.
var spendMagic = []byte("TRESPD1\n")

// Ledger is the double-spend set: which token IDs have been redeemed.
// It has archive.Log's shape: one mutex serialises Spend (recheck,
// durable append, insert), and the set itself sits under a separate
// RWMutex that Spent reads, so a replay probe never waits behind an
// fsync.
//
// Durability: every successful Spend is fsynced into spend.log (an
// archive.FrameLog of raw 32-byte token IDs) BEFORE it is published to
// the in-memory set, so an admitted redemption is always durable. The
// in-memory set is derived data, rebuilt wholesale from the intact log
// prefix on OpenLedger; a torn tail (crash mid-append) is truncated,
// which un-spends at most the single redemption whose admission was
// never acknowledged — the safe direction.
type Ledger struct {
	mu     sync.Mutex        // serialises Spend and Close; Spent never takes it
	log    *archive.FrameLog // nil: memory-only
	closed bool

	setMu sync.RWMutex
	set   map[[32]byte]struct{}
}

// LedgerStats describes what OpenLedger recovered.
type LedgerStats struct {
	Spent      int   // distinct token IDs now considered spent
	Records    int   // intact spend.log records replayed
	Duplicates int   // replayed records whose ID was already present
	TornBytes  int64 // bytes truncated from a torn tail
	Truncated  bool  // whether a torn tail was dropped
}

// NewLedger returns an in-memory ledger (tests, relays fronting a
// durable origin). Double-spend state does not survive a restart.
func NewLedger() *Ledger {
	return &Ledger{set: make(map[[32]byte]struct{})}
}

// OpenLedger opens (creating if needed) the durable ledger backed by
// dir/spend.log, replaying the intact prefix and truncating a torn
// tail exactly like archive recovery. Duplicate records cannot be
// produced by Spend (the append happens under the spent recheck), so
// they indicate manual log surgery; they are counted and tolerated —
// the set union is unchanged either way.
func OpenLedger(dir string) (*Ledger, LedgerStats, error) {
	l := NewLedger()
	var stats LedgerStats
	path := filepath.Join(dir, SpendLogName)
	log, fstats, err := archive.OpenFrameLog(path, spendMagic, func(_ int64, payload []byte) error {
		if len(payload) != 32 {
			return fmt.Errorf("token: spend record is %d bytes, want 32", len(payload))
		}
		// Replay is single-threaded: no lock needed yet.
		id := [32]byte(payload)
		if _, ok := l.set[id]; ok {
			stats.Duplicates++
		}
		l.set[id] = struct{}{}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Spent = len(l.set)
	stats.Records = fstats.Records
	stats.TornBytes = fstats.TornBytes
	stats.Truncated = fstats.Truncated
	l.log = log
	return l, stats, nil
}

// Spent reports whether id has been redeemed. It takes only the set's
// read lock, never the Spend mutex an fsync may be holding.
func (l *Ledger) Spent(id [32]byte) bool {
	l.setMu.RLock()
	_, ok := l.set[id]
	l.setMu.RUnlock()
	return ok
}

// Spend marks id as redeemed, exactly once: the first caller wins,
// every other (concurrent or later) caller gets ErrDoubleSpend. The
// durable append happens under the Spend mutex, after the recheck and
// before publication — a crash can lose at most an unacknowledged
// admission, never record one it denied.
func (l *Ledger) Spend(id [32]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLedgerClosed
	}
	if l.Spent(id) {
		return ErrDoubleSpend
	}
	if l.log != nil {
		if err := l.log.Append(id[:]); err != nil {
			// Fail closed: an unrecorded admission would replay after
			// a restart.
			return fmt.Errorf("token: persisting spend: %w", err)
		}
	}
	l.setMu.Lock()
	l.set[id] = struct{}{}
	l.setMu.Unlock()
	return nil
}

// Len returns the number of spent tokens.
func (l *Ledger) Len() int {
	l.setMu.RLock()
	defer l.setMu.RUnlock()
	return len(l.set)
}

// Close flushes nothing (every Spend already fsynced) and releases the
// spend log once any in-flight Spend has finished. Spends after Close
// fail closed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.log == nil {
		return nil
	}
	return l.log.Close()
}

// SpendLogStats is the read-only audit surface behind
// `trectl tokens verify`.
type SpendLogStats struct {
	Records    int   // intact records
	Duplicates int   // records repeating an earlier ID
	TornBytes  int64 // unreadable tail bytes (damage; never repaired here)
	Torn       bool
}

// AuditSpendLog inspects dir/spend.log without modifying it: record
// count, duplicate IDs, and whether the tail is torn. A missing log is
// an empty, healthy one.
func AuditSpendLog(dir string) (SpendLogStats, error) {
	var stats SpendLogStats
	seen := make(map[[32]byte]struct{})
	fstats, err := archive.ReplayFrames(filepath.Join(dir, SpendLogName), spendMagic, func(_ int64, payload []byte) error {
		if len(payload) != 32 {
			return fmt.Errorf("token: spend record is %d bytes, want 32", len(payload))
		}
		var id [32]byte
		copy(id[:], payload)
		if _, ok := seen[id]; ok {
			stats.Duplicates++
		}
		seen[id] = struct{}{}
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.Records = fstats.Records
	stats.TornBytes = fstats.TornBytes
	stats.Torn = fstats.Truncated
	return stats, nil
}
