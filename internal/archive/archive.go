// Package archive stores published time-bound key updates. The paper's
// model (§3) has the server "keep a list of old key updates (whose
// release time has passed) at a publicly accessible place", so a
// receiver who missed a broadcast can always catch up. The archive is
// the only state the time server accumulates — none of it is about
// users.
//
// Memory is that list with its one ordered index; Log (log.go) is a
// FrameLog (framelog.go) that makes a Memory durable. Neither computes
// anything over the updates it stores: each authenticates itself.
package archive

import (
	"errors"
	"slices"
	"sort"
	"sync"

	"timedrelease/internal/core"
)

// Archive is the store of published updates. Implementations must be
// safe for concurrent use.
type Archive interface {
	// Put stores an update. Storing the same label twice is a no-op if
	// the points agree and an error if they conflict (a server must never
	// publish two different updates for one instant).
	Put(u core.KeyUpdate) error
	// Get returns the update for a label, if published.
	Get(label string) (core.KeyUpdate, bool)
	// Labels returns all published labels in lexicographic order (which,
	// for canonical RFC 3339 labels, is chronological order).
	Labels() []string
	// Latest returns the update with the greatest label, if any, at a
	// cost independent of the archive's size.
	Latest() (core.KeyUpdate, bool)
	// Range returns the updates with from ≤ label ≤ to in ascending
	// label order, truncated to the oldest limit when limit > 0, at a
	// cost of O(log n) plus the page.
	Range(from, to string, limit int) (RangeResult, error)
	// Len returns the number of stored updates.
	Len() int
}

// ErrConflict reports two different updates for the same label.
var ErrConflict = errors.New("archive: conflicting update for label")

// Memory is an in-memory archive: the updates by label plus the one
// ordered index — the labels in ascending order — that Labels, Latest
// and Range are served from.
type Memory struct {
	mu     sync.RWMutex
	m      map[string]core.KeyUpdate
	sorted []string // keys of m, ascending; maintained by Put
}

// NewMemory returns an empty in-memory archive.
func NewMemory() *Memory {
	return &Memory{m: make(map[string]core.KeyUpdate)}
}

// Put implements Archive. A label past the current tail — the publish
// and the log-replay pattern — is appended to the index; a backfill is
// inserted at its binary-searched position.
func (a *Memory) Put(u core.KeyUpdate) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.m[u.Label]; ok {
		// Point.Equal understands both the Type-1 and the external
		// (BLS12-381) representation; comparing X/Y alone is blind on
		// the latter.
		if !prev.Point.Equal(u.Point) {
			return ErrConflict
		}
		return nil
	}
	a.m[u.Label] = u
	if n := len(a.sorted); n == 0 || a.sorted[n-1] < u.Label {
		a.sorted = append(a.sorted, u.Label)
	} else {
		a.sorted = slices.Insert(a.sorted, sort.SearchStrings(a.sorted, u.Label), u.Label)
	}
	return nil
}

// Get implements Archive.
func (a *Memory) Get(label string) (core.KeyUpdate, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	u, ok := a.m[label]
	return u, ok
}

// Labels implements Archive. The returned slice is a fresh snapshot in
// lexicographic order, copied from the index under the read lock.
// Labels published concurrently with the call may or may not appear —
// the snapshot is consistent with SOME moment during the call, which is
// all the catch-up protocol needs.
func (a *Memory) Labels() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return slices.Clone(a.sorted)
}

// Latest implements Archive.
func (a *Memory) Latest() (core.KeyUpdate, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if len(a.sorted) == 0 {
		return core.KeyUpdate{}, false
	}
	return a.m[a.sorted[len(a.sorted)-1]], true
}

// Range implements Archive; it is the one implementation of range
// selection in the tree. The read lock is held for the two searches
// and the copy of the page, so a page is a consistent snapshot.
func (a *Memory) Range(from, to string, limit int) (RangeResult, error) {
	if from > to {
		return RangeResult{}, ErrBadRange
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	lo := sort.SearchStrings(a.sorted, from)
	hi := lo + sort.Search(len(a.sorted)-lo, func(i int) bool { return a.sorted[lo+i] > to })
	res := RangeResult{Total: hi - lo}
	if limit > 0 && res.Total > limit {
		hi = lo + limit
	}
	res.Updates = make([]core.KeyUpdate, hi-lo)
	for i, label := range a.sorted[lo:hi] {
		res.Updates[i] = a.m[label]
	}
	return res, nil
}

// Len implements Archive.
func (a *Memory) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.m)
}

// Interface compliance.
var _ Archive = (*Memory)(nil)
