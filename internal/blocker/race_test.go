//go:build race

package blocker_test

// raceEnabled reports a -race build, whose instrumentation changes what
// the allocation tests measure.
const raceEnabled = true
