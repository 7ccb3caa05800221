//go:build !race

package pairing

const raceEnabled = false
