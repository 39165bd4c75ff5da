package campaign

import (
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// TestSectionSizing: the scaled sections' lengths at a given Scale are the
// ones `netfi -scale` has always run — Table 2's rounds floored at 1, and
// the Table 4, §4.3.1 and pass-through windows floored at one character
// period — with a zero Scale meaning the scale-1 size. The rows the tests
// run at (0.25, 0.025, 0.4, 0.1) give the lengths those tests ran before
// they were written as a scale.
func TestSectionSizing(t *testing.T) {
	for _, tc := range []struct {
		scale                       float64
		rounds                      int
		table4, sec431, passThrough sim.Duration
	}{
		{0, 20_000, 1700 * sim.Millisecond, 5 * sim.Second, 2 * sim.Second},
		{1, 20_000, 1700 * sim.Millisecond, 5 * sim.Second, 2 * sim.Second},
		{0.05, 1000, 85 * sim.Millisecond, 250 * sim.Millisecond, 100 * sim.Millisecond},
		{0.3, 6000, 510 * sim.Millisecond, 1500 * sim.Millisecond, 600 * sim.Millisecond},
		{12, 240_000, 20_400 * sim.Millisecond, 60 * sim.Second, 24 * sim.Second},
		{0.25, 5000, 425 * sim.Millisecond, 1250 * sim.Millisecond, 500 * sim.Millisecond},
		{0.025, 500, 42_500 * sim.Microsecond, 125 * sim.Millisecond, 50 * sim.Millisecond},
		{0.4, 8000, 680 * sim.Millisecond, 2 * sim.Second, 800 * sim.Millisecond},
		{0.1, 2000, 170 * sim.Millisecond, 500 * sim.Millisecond, 200 * sim.Millisecond},
		{1e-5, 1, 17 * sim.Microsecond, 50 * sim.Microsecond, 20 * sim.Microsecond},
		// Windows that would round to 0 ps floor at one character period.
		{1e-13, 1, myrinet.CharPeriod, myrinet.CharPeriod, myrinet.CharPeriod},
	} {
		o := SectionOptions{Scale: tc.scale}
		if got := o.rounds(); got != tc.rounds {
			t.Errorf("scale %v: Table 2 rounds = %d, want %d", tc.scale, got, tc.rounds)
		}
		for _, d := range []struct {
			name      string
			got, want sim.Duration
		}{
			{"Table 4 window", o.table4Duration(), tc.table4},
			{"§4.3.1 window", o.sec431Duration(), tc.sec431},
			{"pass-through window", o.passThroughDuration(), tc.passThrough},
		} {
			if d.got != d.want {
				t.Errorf("scale %v: %s = %v, want %v", tc.scale, d.name, d.got, d.want)
			}
		}
	}
}
