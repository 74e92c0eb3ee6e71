//go:build race

package kvserver

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
