//go:build !race

package bls381

const raceEnabled = false
