package token

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"timedrelease/internal/archive"
)

// SpendLogName is the durable double-spend sidecar inside a server's
// archive directory.
const SpendLogName = "spend.log"

// spendMagic identifies (and versions) the spend-log format. Same
// framing as the update log (docs/PROTOCOL.md), different magic: a
// spend log can never be mistaken for an update log.
var spendMagic = []byte("TRESPD1\n")

// ledgerShards must be a power of two; the shard index is the token
// ID's first byte masked.
const ledgerShards = 16

// mergeAt bounds a shard's mutable delta map before it is folded into
// the copy-on-write frozen map (see ledgerShard).
const mergeAt = 512

// Ledger is the double-spend set: which token IDs have been redeemed.
// Each shard keeps an immutable "frozen" map behind an atomic pointer —
// the lock-free hot path, since replay attacks overwhelmingly probe
// long-spent tokens — plus a small mutable delta under the shard mutex,
// folded into a fresh frozen map once it reaches mergeAt entries.
//
// Durability: every successful Spend is fsynced into spend.log (an
// archive.FrameLog of raw 32-byte token IDs) BEFORE it is published to
// the in-memory set, so an admitted redemption is always durable. The
// in-memory set is derived data, rebuilt wholesale from the intact log
// prefix on OpenLedger; a torn tail (crash mid-append) is truncated,
// which un-spends at most the single redemption whose admission was
// never acknowledged — the safe direction.
type Ledger struct {
	shards [ledgerShards]ledgerShard
	log    *archive.FrameLog // nil: memory-only
	closed atomic.Bool
	spent  atomic.Int64
}

type ledgerShard struct {
	frozen atomic.Pointer[map[[32]byte]struct{}]
	mu     sync.Mutex
	delta  map[[32]byte]struct{}
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
	l := &Ledger{}
	l.init()
	return l
}

func (l *Ledger) init() {
	empty := make(map[[32]byte]struct{})
	for i := range l.shards {
		l.shards[i].frozen.Store(&empty)
		l.shards[i].delta = make(map[[32]byte]struct{})
	}
}

// OpenLedger opens (creating if needed) the durable ledger backed by
// dir/spend.log, replaying the intact prefix and truncating a torn
// tail exactly like archive recovery. Duplicate records cannot be
// produced by Spend (the append happens under the spent recheck), so
// they indicate manual log surgery; they are counted and tolerated —
// the set union is unchanged either way.
func OpenLedger(dir string) (*Ledger, LedgerStats, error) {
	l := &Ledger{}
	l.init()
	var stats LedgerStats
	path := filepath.Join(dir, SpendLogName)
	log, fstats, err := archive.OpenFrameLog(path, spendMagic, func(_ int64, payload []byte) error {
		if len(payload) != 32 {
			return fmt.Errorf("token: spend record is %d bytes, want 32", len(payload))
		}
		var id [32]byte
		copy(id[:], payload)
		if l.insertRecovered(id) {
			stats.Spent++
		} else {
			stats.Duplicates++
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Records = fstats.Records
	stats.TornBytes = fstats.TornBytes
	stats.Truncated = fstats.Truncated
	l.log = log
	l.spent.Store(int64(stats.Spent))
	return l, stats, nil
}

// insertRecovered adds an ID during replay (no logging, no lock
// contention — OpenLedger is single-threaded). Reports whether the ID
// was new.
func (l *Ledger) insertRecovered(id [32]byte) bool {
	sh := &l.shards[id[0]&(ledgerShards-1)]
	if _, ok := sh.delta[id]; ok {
		return false
	}
	if _, ok := (*sh.frozen.Load())[id]; ok {
		return false
	}
	sh.delta[id] = struct{}{}
	sh.mergeLocked()
	return true
}

// Spent reports whether id has been redeemed. The frozen map is read
// lock-free; only a frozen miss (new or unknown tokens) takes the
// shard mutex to consult the delta.
func (l *Ledger) Spent(id [32]byte) bool {
	sh := &l.shards[id[0]&(ledgerShards-1)]
	if _, ok := (*sh.frozen.Load())[id]; ok {
		return true
	}
	sh.mu.Lock()
	_, ok := sh.delta[id]
	sh.mu.Unlock()
	return ok
}

// Spend marks id as redeemed, exactly once: the first caller wins,
// every other (concurrent or later) caller gets ErrDoubleSpend. The
// durable append happens under the shard lock, after the recheck and
// before publication — a crash can lose at most an unacknowledged
// admission, never record one it denied.
func (l *Ledger) Spend(id [32]byte) error {
	if l.closed.Load() {
		return errLedgerClosed
	}
	sh := &l.shards[id[0]&(ledgerShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := (*sh.frozen.Load())[id]; ok {
		return ErrDoubleSpend
	}
	if _, ok := sh.delta[id]; ok {
		return ErrDoubleSpend
	}
	if l.log != nil {
		if err := l.log.Append(id[:]); err != nil {
			// Fail closed: an unrecorded admission would replay after
			// a restart.
			return fmt.Errorf("token: persisting spend: %w", err)
		}
	}
	sh.delta[id] = struct{}{}
	sh.mergeLocked()
	l.spent.Add(1)
	return nil
}

// mergeLocked folds the delta into a fresh frozen map once it is big
// enough. Caller holds sh.mu (or has exclusive access during replay).
func (sh *ledgerShard) mergeLocked() {
	if len(sh.delta) < mergeAt {
		return
	}
	old := *sh.frozen.Load()
	next := make(map[[32]byte]struct{}, len(old)+len(sh.delta))
	for k := range old {
		next[k] = struct{}{}
	}
	for k := range sh.delta {
		next[k] = struct{}{}
	}
	sh.frozen.Store(&next)
	sh.delta = make(map[[32]byte]struct{})
}

// Len returns the number of spent tokens.
func (l *Ledger) Len() int { return int(l.spent.Load()) }

// Close flushes nothing (every Spend already fsynced) and releases the
// spend log. Spends after Close fail closed.
func (l *Ledger) Close() error {
	l.closed.Store(true)
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
