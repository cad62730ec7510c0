//go:build !race

package ranker

const raceEnabled = false
