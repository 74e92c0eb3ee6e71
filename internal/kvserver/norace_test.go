//go:build !race

package kvserver

const raceEnabled = false
