//go:build !race

package backend_test

const raceEnabled = false
