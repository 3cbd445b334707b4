//go:build race

package kb

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
