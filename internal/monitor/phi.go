// Package monitor is the production monitoring plane layered over the fault
// injection test bed: phi-accrual failure detectors fed by heartbeat and
// traffic observations, NetFlow-style flow records exported from switch
// taps, and polled probes that flag anomalies (loss bursts, wedged outputs)
// online while a campaign runs. The paper's monitoring was a human watching
// counters; this package is the automated operator the ROADMAP's
// "production monitoring plane" item asks for.
//
// Everything here observes; nothing here perturbs. Taps are strictly
// opt-in, batch-granular, and allocation-free in steady state so the
// zero-alloc pass-through guarantees of the datapath survive with
// monitoring armed.
package monitor

import (
	"math"

	"netfi/internal/sim"
)

// PhiConfig parameterizes an accrual failure detector.
type PhiConfig struct {
	// Threshold is the phi value at or above which the monitored source
	// is suspected. Zero selects 1.0 — suspicion when the estimated
	// probability that the source has failed reaches 90%.
	Threshold float64
}

const (
	// phiWindow is the sliding window of inter-arrival samples.
	phiWindow = 64
	// phiMinSamples is how many inter-arrival samples must accrue before
	// the detector emits a nonzero phi; below it the detector has no
	// basis for suspicion.
	phiMinSamples = 3
	// phiScale stretches the empirical distribution: an elapsed silence
	// is compared against sample*phiScale, tolerating jitter up to the
	// factor.
	phiScale = 1.5
)

// PhiDetector is an adaptive accrual failure detector in the phi-accrual
// family (Hayashibara et al.; the adaptive variant follows SNIPPETS §3):
// instead of outputting a boolean alive/failed, it accrues suspicion as a
// continuous function of the silence since the last heartbeat, calibrated
// against the empirical distribution of recent inter-arrival times.
//
//	P_fail(t) = |{ s in window : s*phiScale <= t }| / (count + 1)
//	phi(t)    = -log10(1 - P_fail(t))
//
// The +1 smoothing keeps P_fail < 1 (phi finite, bounded by
// log10(count+1)), and the empirical CDF adapts to whatever cadence the
// monitored source actually has — a 2 ms heartbeat and a bursty 10 ms
// workload both calibrate themselves.
//
// The zero value is not usable; construct with NewPhiDetector.
type PhiDetector struct {
	threshold float64
	samples   [phiWindow]sim.Duration // ring buffer of inter-arrival times
	next      int                     // ring write position
	count     int                     // filled entries, <= phiWindow
	last      sim.Time
	seen      bool   // at least one heartbeat observed
	beats     uint64 // heartbeats observed
}

// NewPhiDetector returns a detector with no history.
func NewPhiDetector(cfg PhiConfig) *PhiDetector {
	if cfg.Threshold == 0 {
		cfg.Threshold = 1.0
	}
	return &PhiDetector{threshold: cfg.Threshold}
}

// Heartbeat records an arrival at time now. The first arrival only anchors
// the clock; subsequent arrivals contribute inter-arrival samples.
func (d *PhiDetector) Heartbeat(now sim.Time) {
	d.beats++
	if d.seen {
		delta := now - d.last
		if delta > 0 {
			d.samples[d.next] = sim.Duration(delta)
			d.next = (d.next + 1) % phiWindow
			if d.count < phiWindow {
				d.count++
			}
		}
	}
	d.seen = true
	d.last = now
}

// Phi returns the accrued suspicion at time now: 0 while the detector lacks
// phiMinSamples history, rising toward log10(count+1) as silence outlasts the
// observed inter-arrival distribution.
func (d *PhiDetector) Phi(now sim.Time) float64 {
	if d.count < phiMinSamples || now <= d.last {
		return 0
	}
	elapsed := float64(now - d.last)
	exceeded := 0
	for i := 0; i < d.count; i++ {
		if float64(d.samples[i])*phiScale <= elapsed {
			exceeded++
		}
	}
	if exceeded == 0 {
		return 0
	}
	p := float64(exceeded) / float64(d.count+1)
	return -math.Log10(1 - p)
}

// Suspect reports whether phi has reached the configured threshold.
func (d *PhiDetector) Suspect(now sim.Time) bool {
	return d.Phi(now) >= d.threshold
}

// Threshold returns the configured suspicion threshold.
func (d *PhiDetector) Threshold() float64 { return d.threshold }
