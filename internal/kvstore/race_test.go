//go:build race

package kvstore

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
