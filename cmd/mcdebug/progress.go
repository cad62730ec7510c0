package main

// The -progress stderr meter: a goroutine samples the join tracker's
// lock-free snapshots on a ticker and redraws one carriage-return line,
// so the hot join loop never does terminal I/O. The meter attaches only
// when -progress is given — mcdebug's default output stays script-safe.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"matchcatcher/internal/ssjoin"
)

// progressMeter redraws the join meter on w until stop is closed, then
// prints the final state on its own line. Call the returned function
// after the join to stop the meter and wait for that last line.
func progressMeter(w io.Writer, prog *ssjoin.Progress, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				fmt.Fprintf(w, "\r%s\n", meterLine(prog.Snapshot()))
				return
			case <-t.C:
				fmt.Fprintf(w, "\r%-100s", meterLine(prog.Snapshot()))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// meterLine renders one snapshot as a single meter line. The pruned
// column is the sum over the join's prune tiers, then each tier's count.
func meterLine(s ssjoin.ProgressSnapshot) string {
	var total int64
	var tiers strings.Builder
	for i, t := range s.PruneTiers() {
		total += t.Kills
		if i > 0 {
			tiers.WriteByte(' ')
		}
		fmt.Fprintf(&tiers, "%s %s", t.Label, countShort(t.Kills))
	}
	line := fmt.Sprintf("join %5.1f%% | configs %d/%d | rows %s/%s | pruned %s (%s)",
		s.Fraction*100, s.ConfigsDone, s.ConfigsTotal,
		countShort(s.ProbesDone), countShort(s.ProbesTotal),
		countShort(total), tiers.String())
	switch {
	case s.Done && s.Cancelled:
		line += " | cancelled"
	case s.Done:
		line += fmt.Sprintf(" | done in %s", durShort(s.ElapsedSeconds))
	case s.ETASeconds >= 0:
		line += fmt.Sprintf(" | eta %s", durShort(s.ETASeconds))
	}
	return line
}

// countShort renders a counter compactly (1234567 -> "1.2M").
func countShort(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// durShort renders seconds compactly ("850ms", "12s", "3m05s").
func durShort(sec float64) string {
	switch {
	case sec < 1:
		return fmt.Sprintf("%.0fms", sec*1000)
	case sec < 60:
		return fmt.Sprintf("%.0fs", sec)
	default:
		return fmt.Sprintf("%dm%02ds", int(sec)/60, int(sec)%60)
	}
}
