//go:build !race

package blocker_test

const raceEnabled = false
