//go:build race

package ssjoin

// raceEnabled reports a -race build, whose instrumentation the
// allocation tests cannot budget.
const raceEnabled = true
