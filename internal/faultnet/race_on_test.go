//go:build race

package faultnet_test

// raceEnabled gates perf assertions: the race detector's slowdown would
// make them meaningless.
const raceEnabled = true
