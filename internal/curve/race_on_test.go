//go:build race

package curve

// raceEnabled skips the allocation-count test: under the race detector
// sync.Pool drops items at random, so the pooled arenas re-allocate.
const raceEnabled = true
