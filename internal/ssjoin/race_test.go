//go:build race

package ssjoin

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of the items put back.
const raceEnabled = true
