//go:build !race

package ff

const raceEnabled = false
