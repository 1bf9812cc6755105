//go:build race

package cluster

// raceEnabled reports whether the race detector is active; the tests that
// move a 500,000-family community take too long under it.
const raceEnabled = true
