//go:build race

package server

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
