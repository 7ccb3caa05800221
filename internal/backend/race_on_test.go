//go:build race

package backend_test

// raceEnabled skips the allocation-count tests: under the race detector
// sync.Pool drops items at random, so the pooled arenas re-allocate.
const raceEnabled = true
