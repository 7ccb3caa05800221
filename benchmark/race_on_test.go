//go:build race

package main

// slowdown stretches the smoke runs under the race detector, where one
// coldstart operation alone outlasts the normal measured second.
const slowdown = 8
