// Package archive stores published time-bound key updates. The paper's
// model (§3) has the server "keep a list of old key updates (whose
// release time has passed) at a publicly accessible place", so a
// receiver who missed a broadcast can always catch up. The archive is
// the only state the time server accumulates — none of it is about
// users.
package archive

import (
	"errors"
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
	// Len returns the number of stored updates.
	Len() int
}

// ErrConflict reports two different updates for the same label.
var ErrConflict = errors.New("archive: conflicting update for label")

// Memory is an in-memory archive.
type Memory struct {
	mu sync.RWMutex
	m  map[string]core.KeyUpdate
}

// NewMemory returns an empty in-memory archive.
func NewMemory() *Memory {
	return &Memory{m: make(map[string]core.KeyUpdate)}
}

// Put implements Archive.
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
// lexicographic order: the read lock is held only while copying the
// keys, and the O(n log n) sort runs after it is released, so a large
// archive never stalls concurrent Put/Get behind sorting. Labels
// published concurrently with the call may or may not appear — the
// snapshot is consistent with SOME moment during the call, which is all
// the catch-up protocol needs.
func (a *Memory) Labels() []string {
	a.mu.RLock()
	out := make([]string, 0, len(a.m))
	for l := range a.m {
		out = append(out, l)
	}
	a.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len implements Archive.
func (a *Memory) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.m)
}

// Interface compliance.
var _ Archive = (*Memory)(nil)
