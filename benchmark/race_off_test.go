//go:build !race

package main

const slowdown = 1
