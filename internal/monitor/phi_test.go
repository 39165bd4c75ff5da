package monitor

import (
	"math"
	"testing"

	"netfi/internal/sim"
)

// refPhi is the straight-line reference the estimator is tested against: it
// rebuilds the window naively from the full arrival history on every query.
func refPhi(arrivals []sim.Time, now sim.Time) float64 {
	var inter []sim.Duration
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d > 0 {
			inter = append(inter, sim.Duration(d))
		}
	}
	if len(inter) > phiWindow {
		inter = inter[len(inter)-phiWindow:]
	}
	if len(inter) < phiMinSamples || len(arrivals) == 0 {
		return 0
	}
	last := arrivals[len(arrivals)-1]
	if now <= last {
		return 0
	}
	elapsed := float64(now - last)
	exceeded := 0
	for _, s := range inter {
		if float64(s)*phiScale <= elapsed {
			exceeded++
		}
	}
	if exceeded == 0 {
		return 0
	}
	return -math.Log10(1 - float64(exceeded)/float64(len(inter)+1))
}

func feedArrivals(d *PhiDetector, arrivals []sim.Time) {
	for _, at := range arrivals {
		d.Heartbeat(at)
	}
}

func TestPhiMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		arrivals []sim.Time // strictly increasing
		queries  []sim.Duration
	}{
		{
			name: "steady-2ms",
			arrivals: []sim.Time{
				0, sim.Time(2 * sim.Millisecond), sim.Time(4 * sim.Millisecond),
				sim.Time(6 * sim.Millisecond), sim.Time(8 * sim.Millisecond),
				sim.Time(10 * sim.Millisecond),
			},
			queries: []sim.Duration{
				sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond,
				5 * sim.Millisecond, 20 * sim.Millisecond,
			},
		},
		{
			name: "mixed-cadence",
			arrivals: []sim.Time{
				0, sim.Time(sim.Millisecond), sim.Time(3 * sim.Millisecond),
				sim.Time(13 * sim.Millisecond), sim.Time(14 * sim.Millisecond),
				sim.Time(24 * sim.Millisecond), sim.Time(25 * sim.Millisecond),
			},
			queries: []sim.Duration{
				sim.Millisecond, 4 * sim.Millisecond, 16 * sim.Millisecond,
				40 * sim.Millisecond,
			},
		},
		{
			name: "window-eviction",
			arrivals: func() []sim.Time {
				// 10 early 1 ms gaps then a window of late 5 ms gaps:
				// only the 5 ms samples must remain in the window.
				var a []sim.Time
				at := sim.Time(0)
				a = append(a, at)
				for i := 0; i < 10; i++ {
					at += sim.Time(sim.Millisecond)
					a = append(a, at)
				}
				for i := 0; i < phiWindow; i++ {
					at += sim.Time(5 * sim.Millisecond)
					a = append(a, at)
				}
				return a
			}(),
			queries: []sim.Duration{
				2 * sim.Millisecond, 8 * sim.Millisecond, 30 * sim.Millisecond,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewPhiDetector(PhiConfig{})
			feedArrivals(d, tc.arrivals)
			last := tc.arrivals[len(tc.arrivals)-1]
			for _, q := range tc.queries {
				now := last + sim.Time(q)
				got := d.Phi(now)
				want := refPhi(tc.arrivals, now)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("Phi(last+%v) = %v, reference %v", q, got, want)
				}
			}
		})
	}
}

func TestPhiKnownValues(t *testing.T) {
	// 5 arrivals 2 ms apart: 4 samples of 2 ms each, phiScale 1.5. With only
	// 4 samples the smoothing bounds phi at log10(5) ≈ 0.7, so the
	// suspicion checks use a threshold below that.
	d := NewPhiDetector(PhiConfig{Threshold: 0.5})
	for i := 0; i < 5; i++ {
		d.Heartbeat(sim.Time(i) * sim.Time(2*sim.Millisecond))
	}
	last := sim.Time(4 * 2 * sim.Millisecond)

	// Silence below 3 ms (= 2 ms * 1.5): no sample exceeded, phi 0.
	if got := d.Phi(last + sim.Time(2*sim.Millisecond)); got != 0 {
		t.Fatalf("phi within jitter tolerance = %v, want 0", got)
	}
	// Silence past 3 ms: all 4 samples exceeded, P = 4/5, phi = -log10(1/5).
	want := -math.Log10(1 - 4.0/5.0)
	if got := d.Phi(last + sim.Time(3*sim.Millisecond)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("phi after silence = %v, want %v", got, want)
	}
	if !d.Suspect(last + sim.Time(3*sim.Millisecond)) {
		t.Fatal("detector should suspect after silence outlasts every sample")
	}
	if d.Suspect(last + sim.Time(sim.Millisecond)) {
		t.Fatal("detector should not suspect within the observed cadence")
	}
}

func TestPhiNeedsMinSamples(t *testing.T) {
	d := NewPhiDetector(PhiConfig{})
	d.Heartbeat(0)
	d.Heartbeat(sim.Time(sim.Millisecond))
	d.Heartbeat(sim.Time(2 * sim.Millisecond))
	// Two inter-arrival samples < phiMinSamples: phi must stay 0 forever.
	if got := d.Phi(sim.Time(sim.Second)); got != 0 {
		t.Fatalf("phi with %d samples = %v, want 0", d.count, got)
	}
	d.Heartbeat(sim.Time(3 * sim.Millisecond))
	if got := d.Phi(sim.Time(sim.Second)); got <= 0 {
		t.Fatalf("phi with %d samples = %v, want > 0", d.count, got)
	}
}

func TestPhiBounded(t *testing.T) {
	d := NewPhiDetector(PhiConfig{})
	for i := 0; i < 100; i++ {
		d.Heartbeat(sim.Time(i) * sim.Time(sim.Millisecond))
	}
	phi := d.Phi(sim.Time(10 * sim.Second))
	bound := math.Log10(float64(d.count + 1))
	if phi > bound+1e-12 {
		t.Fatalf("phi = %v exceeds smoothing bound %v", phi, bound)
	}
	if math.IsInf(phi, 0) || math.IsNaN(phi) {
		t.Fatalf("phi = %v, want finite", phi)
	}
}

func TestPhiQueryAllocFree(t *testing.T) {
	d := NewPhiDetector(PhiConfig{})
	for i := 0; i < 70; i++ {
		d.Heartbeat(sim.Time(i) * sim.Time(sim.Millisecond))
	}
	now := sim.Time(200 * sim.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		d.Heartbeat(now)
		now += sim.Time(sim.Millisecond)
		_ = d.Phi(now)
	})
	if allocs > 0 {
		t.Fatalf("heartbeat+query allocates %.1f/run, want 0", allocs)
	}
}
