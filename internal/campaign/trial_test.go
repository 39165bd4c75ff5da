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
	all := Trial{Delivered: sent}
	with := func(f func(*Trial)) Trial {
		r := all
		f(&r)
		return r
	}
	for _, c := range []struct {
		name    string
		q       sim.QuiesceResult
		r       Trial
		retries bool
		want    TrialOutcome
	}{
		// Resilience with recovery: reliable transport.
		{"reliable stalled with work outstanding", stalled, with(func(r *Trial) { r.Outstanding, r.Delivered = 1, 5 }), true, OutcomeHung},
		{"reliable deadline with work outstanding", deadline, with(func(r *Trial) { r.Outstanding, r.Delivered = 1, 5 }), true, OutcomeHung},
		{"reliable drained with work outstanding", drained, with(func(r *Trial) { r.Outstanding, r.Delivered = 1, 5 }), true, OutcomeHung},
		{"reliable delivered after a reset", drained, with(func(r *Trial) { r.RecoveryEvents, r.Retransmits = 2, 1 }), true, OutcomeResetRecovered},
		{"reliable delivered after a retry", drained, with(func(r *Trial) { r.Retransmits = 1 }), true, OutcomeRetransmitted},
		{"reliable delivered first time", drained, all, true, OutcomeMasked},
		{"reliable gave up", drained, with(func(r *Trial) { r.Delivered, r.GaveUp = 5, 1 }), true, OutcomeDegraded},
		// Chaos: reliable transport on a warmed world.
		{"reliable drained, output held, work lost", drained, with(func(r *Trial) { r.Delivered, r.GaveUp, r.HeldOutputs = 5, 1, 1 }), true, OutcomeHung},
		{"reliable abandoned toward a dead node", drained, with(func(r *Trial) { r.Delivered, r.GaveUp = 3, 3 }), true, OutcomeDegraded},
		// Resilience without recovery: plain UDP.
		{"plain stalled", stalled, Trial{Delivered: 5}, false, OutcomeHung},
		{"plain deadline", deadline, Trial{Delivered: 5}, false, OutcomeHung},
		{"plain drained, output held", drained, Trial{Delivered: 5, HeldOutputs: 1}, false, OutcomeHung},
		{"plain delivered", drained, Trial{Delivered: sent}, false, OutcomeMasked},
		{"plain lost", drained, Trial{Delivered: 4}, false, OutcomeDropped},
		// Where the switches disagreed.
		{"disagreed: reliable stalled, nothing outstanding", stalled, all, true, OutcomeHung},
		{"disagreed: reliable deadline, nothing outstanding", deadline, all, true, OutcomeHung},
		{"disagreed: reliable drained, all delivered, output held", drained, with(func(r *Trial) { r.HeldOutputs = 1 }), true, OutcomeHung},
		{"disagreed: plain delivered, recovery events", drained, Trial{Delivered: sent, RecoveryEvents: 1}, false, OutcomeMasked},
	} {
		if got := triage(c.q, c.r, sent, c.retries); got != c.want {
			t.Errorf("%s: triage = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestTrialAllocs holds what one trial allocates, test-bed construction and
// warm-up included: 437 objects for the wedging resilience trial with
// recovery on, 394 with it off, and 430 for a two-fault chaos plan on a
// rebuilt, warmed world (identical over ten runs). The ceilings were 441,
// 398 and 439 while a network container held the bed's switch and cables
// and a rule-set memo miss bound the compiled rules a second time, 558,
// 506 and 597 while resilience, chaos and the monitor demo still ran their
// own copies of the trial sequence, and the trials cost 536, 487 and 571
// while the serial byte path, the reliable transport's queues, the trial's
// hooks and rule arming allocated per byte, message, event and rule.
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
		{true, 437},
		{false, 394},
	} {
		// Trial 2 is the gap-drop-tail family: the paper's wedge.
		got := testing.AllocsPerRun(10, func() { runResilienceTrial(7, 2, ropts, c.recovery) })
		if got > c.max {
			t.Errorf("resilience trial, recovery=%v: %v objects, want at most %v", c.recovery, got, c.max)
		}
	}
	copts := chaosTestOptions(31337, 2)
	plan := GenerateForkPlans(copts)[1]
	if got := testing.AllocsPerRun(10, func() { runRebuiltChaosTrial(copts.Seed, plan, copts) }); got > 430 {
		t.Errorf("rebuilt chaos trial (%s): %v objects, want at most 430", plan, got)
	}
}

// TestRefusedArmIsAnError: a rule the board refuses mid-run is not a fault
// that missed. The trial is OutcomeError and its Err is the board's ERR
// line, on a fresh world as on a fork.
func TestRefusedArmIsAnError(t *testing.T) {
	refused := Fault{Kind: FaultCorrupt, Family: "truncate", Delay: 4 * sim.Millisecond,
		Rule: "RULE ADD 70 MODE ONCE ACT DROP:9 PAT 55"} // past the 4-character window
	want := "ERR core: rule 70 drop count 9 exceeds window size 4"
	check := func(where string, tr Trial) {
		t.Helper()
		if tr.Outcome != OutcomeError || tr.Err != want {
			t.Errorf("%s: outcome %s, err %q; want %s, %q", where, tr.Outcome, tr.Err, OutcomeError, want)
		}
	}
	fresh := freshWorld(NewTestbed(TestbedConfig{Seed: 3, Recovery: trialRecovery}))
	check("fresh world", runTrial(fresh, []Fault{refused}, trialWorkload{messages: 4, gap: 5 * sim.Millisecond}))

	opts := chaosTestOptions(31337, 1)
	base := newChaosBase(opts.Seed, opts)
	plan := ForkPlan{ID: 1, Faults: []Fault{
		{Kind: FaultCorrupt, Family: "gap-drop", Rule: "RULE ADD 70 MODE ONCE ACT DROP PAT C0C", Delay: 2 * sim.Millisecond},
		refused,
	}}
	check("fork", runForkChaosTrial(base, plan, opts).Trial)
	if ok := runForkChaosTrial(base, ForkPlan{Faults: plan.Faults[:1]}, opts); ok.Outcome == OutcomeError {
		t.Errorf("an accepted arm on the same base: %s %q", ok.Outcome, ok.Err)
	}
}
