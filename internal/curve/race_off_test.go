//go:build !race

package curve

const raceEnabled = false
