//go:build race

package ranker

// raceEnabled reports a -race build, whose instrumentation changes what
// the allocation tests measure.
const raceEnabled = true
