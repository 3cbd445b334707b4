//go:build race

package graph

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
