//go:build !race

package ssjoin

const raceEnabled = false
