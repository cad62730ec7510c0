package main

import (
	"testing"

	"matchcatcher/internal/ssjoin"
)

// TestMeterLineGolden pins the -progress meter's text byte for byte:
// running with an ETA, finished, cancelled, and before any ETA.
func TestMeterLineGolden(t *testing.T) {
	base := ssjoin.ProgressSnapshot{
		ConfigsDone: 3, ConfigsTotal: 10,
		ProbesDone: 13_000, ProbesTotal: 2_500_000,
		PruneKillPushCap: 1_234_567, PruneKillLoopBreak: 42, PruneKillFlushBound: 9_999,
		PruneKillLengthFilter: 10_000, PruneKillPrefixPos: 3_000_000_000,
		Fraction: 0.4231, ETASeconds: 75,
	}
	done := base
	done.Done, done.Fraction, done.ElapsedSeconds = true, 1, 0.85
	cancelled := base
	cancelled.Done, cancelled.Cancelled = true, true
	early := ssjoin.ProgressSnapshot{ConfigsTotal: 21, ETASeconds: -1}
	for _, c := range []struct {
		s    ssjoin.ProgressSnapshot
		want string
	}{
		{base, "join  42.3% | configs 3/10 | rows 13k/2.5M | pruned 3.0G (push 1.2M loop 42 flush 9999 len 10k pos 3.0G) | eta 1m15s"},
		{done, "join 100.0% | configs 3/10 | rows 13k/2.5M | pruned 3.0G (push 1.2M loop 42 flush 9999 len 10k pos 3.0G) | done in 850ms"},
		{cancelled, "join  42.3% | configs 3/10 | rows 13k/2.5M | pruned 3.0G (push 1.2M loop 42 flush 9999 len 10k pos 3.0G) | cancelled"},
		{early, "join   0.0% | configs 0/21 | rows 0/0 | pruned 0 (push 0 loop 0 flush 0 len 0 pos 0)"},
	} {
		if got := meterLine(c.s); got != c.want {
			t.Errorf("meterLine =\n%q\nwant\n%q", got, c.want)
		}
	}
}
