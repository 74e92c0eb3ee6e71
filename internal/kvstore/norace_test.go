//go:build !race

package kvstore

const raceEnabled = false
