package campaign

import (
	"testing"

	"netfi/internal/sim"
)

// TestTriage pins the one trial triage. Resilience (recovery on: reliable
// transport; off: plain UDP) and chaos (reliable) each used to carry their
// own switch. There is one row per branch of those switches, each expecting
// what that switch returned for its workload, and one row per case where
// the switches disagreed (marked "disagreed"). None of those cases occurs in
// the default campaigns, the JSON goldens or the benchmark's seeds: the
// merged rule takes every wedge sign any switch checked as a hang, and keys
// the rest on whether the workload's transport retries.
func TestTriage(t *testing.T) {
	const sent = 6
	drained := sim.QuiesceResult{Drained: true}
	stalled := sim.QuiesceResult{Stalled: true}
	deadline := sim.QuiesceResult{DeadlineHit: true}
	all := trialResult{Delivered: sent}
	with := func(f func(*trialResult)) trialResult {
		r := all
		f(&r)
		return r
	}
	for _, c := range []struct {
		name    string
		q       sim.QuiesceResult
		r       trialResult
		retries bool
		want    TrialOutcome
	}{
		// Resilience with recovery: reliable transport.
		{"reliable stalled with work outstanding", stalled, with(func(r *trialResult) { r.Outstanding, r.Delivered = 1, 5 }), true, OutcomeHung},
		{"reliable deadline with work outstanding", deadline, with(func(r *trialResult) { r.Outstanding, r.Delivered = 1, 5 }), true, OutcomeHung},
		{"reliable drained with work outstanding", drained, with(func(r *trialResult) { r.Outstanding, r.Delivered = 1, 5 }), true, OutcomeHung},
		{"reliable delivered after a reset", drained, with(func(r *trialResult) { r.RecoveryEvents, r.Retransmits = 2, 1 }), true, OutcomeResetRecovered},
		{"reliable delivered after a retry", drained, with(func(r *trialResult) { r.Retransmits = 1 }), true, OutcomeRetransmitted},
		{"reliable delivered first time", drained, all, true, OutcomeMasked},
		{"reliable gave up", drained, with(func(r *trialResult) { r.Delivered, r.GaveUp = 5, 1 }), true, OutcomeDegraded},
		// Chaos: reliable transport on a warmed world.
		{"reliable wall clock", sim.QuiesceResult{WallClockHit: true}, with(func(r *trialResult) { r.Outstanding = 3 }), true, OutcomeWallClock},
		{"reliable drained, output held, work lost", drained, with(func(r *trialResult) { r.Delivered, r.GaveUp, r.HeldOutputs = 5, 1, 1 }), true, OutcomeHung},
		{"reliable abandoned toward a dead node", drained, with(func(r *trialResult) { r.Delivered, r.GaveUp = 3, 3 }), true, OutcomeDegraded},
		// Resilience without recovery: plain UDP.
		{"plain stalled", stalled, trialResult{Delivered: 5}, false, OutcomeHung},
		{"plain deadline", deadline, trialResult{Delivered: 5}, false, OutcomeHung},
		{"plain drained, output held", drained, trialResult{Delivered: 5, HeldOutputs: 1}, false, OutcomeHung},
		{"plain delivered", drained, trialResult{Delivered: sent}, false, OutcomeMasked},
		{"plain lost", drained, trialResult{Delivered: 4}, false, OutcomeDropped},
		// Where the switches disagreed.
		{"disagreed: reliable stalled, nothing outstanding", stalled, all, true, OutcomeHung},
		{"disagreed: reliable deadline, nothing outstanding", deadline, all, true, OutcomeHung},
		{"disagreed: reliable drained, all delivered, output held", drained, with(func(r *trialResult) { r.HeldOutputs = 1 }), true, OutcomeHung},
		{"disagreed: plain delivered, recovery events", drained, trialResult{Delivered: sent, RecoveryEvents: 1}, false, OutcomeMasked},
	} {
		if got := triage(c.q, c.r, sent, c.retries); got != c.want {
			t.Errorf("%s: triage = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestTrialAllocs holds what one trial allocates, test-bed construction and
// warm-up included, to at most what it cost while resilience, chaos and the
// monitor demo still ran their own copies of the trial sequence: 558 objects
// for the wedging resilience trial with recovery on, 506 with it off, and 597
// for a two-fault chaos plan on a rebuilt, warmed world (identical over ten
// runs).
// A plan string, a world fingerprint or a boxed fault on this path would
// show here before it showed in the benchmark.
func TestTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	ropts := ResilienceOptions{Seed: 7, Messages: 4}
	ropts.fillDefaults()
	for _, c := range []struct {
		recovery bool
		max      float64
	}{
		{true, 558},
		{false, 506},
	} {
		// Trial 2 is the gap-drop-tail family: the paper's wedge.
		got := testing.AllocsPerRun(10, func() { runResilienceTrial(7, 2, ropts, c.recovery) })
		if got > c.max {
			t.Errorf("resilience trial, recovery=%v: %v objects, want at most %v", c.recovery, got, c.max)
		}
	}
	copts := chaosTestOptions(31337, 2)
	plan := GenerateForkPlans(copts)[1]
	if got := testing.AllocsPerRun(10, func() { runRebuiltChaosTrial(copts.Seed, plan, copts) }); got > 597 {
		t.Errorf("rebuilt chaos trial (%s): %v objects, want at most 597", plan, got)
	}
}
