//go:build !race

package mongosim

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a share of what it is given at random.
const raceEnabled = false
