package workload

import (
	"fmt"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/meter"
	"netfi/internal/campaign"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// resilienceSetup builds the bed a recovery-on trial starts from, with the
// watchdog settings RunResilience uses.
func resilienceSetup(in *gen.Inputs) {
	campaign.NewTestbed(campaign.TestbedConfig{
		Seed: in.ResilienceSeed,
		Recovery: myrinet.RecoveryConfig{
			Enabled:        true,
			BlockedTimeout: 15 * sim.Millisecond,
			StopWatchdog:   25 * sim.Millisecond,
		},
	})
}

// failedOutcome reports whether a trial or fork ended outside the simulated
// triage: it panicked, or tripped the wall-clock escape hatch.
func failedOutcome(o campaign.TrialOutcome) bool {
	return o == campaign.OutcomeError || o == campaign.OutcomeWallClock
}

// resilienceRep runs the rebuild-per-trial campaign. Every trial runs
// twice, recovery on and off; each run is one operation.
func resilienceRep(in *gen.Inputs, threads int, m *meter.Meter) Outcome {
	var res campaign.ResilienceResult
	m.Timed("run", func() {
		res = campaign.RunResilience(campaign.ResilienceOptions{
			Seed: in.ResilienceSeed, Trials: in.Sizes.Trials, Workers: threads,
		})
	})
	var out Outcome
	m.Span("collect", func() {
		for _, sweep := range [][]campaign.ResilienceTrial{res.Trials, res.Baseline} {
			for _, t := range sweep {
				out.Records = append(out.Records, recordDigest(t))
				if failedOutcome(t.Outcome) {
					out.Failed++
					out.Problems = append(out.Problems, fmt.Sprintf("trial %d: %s", t.ID, t.Outcome))
				}
			}
		}
		out.Attempted = uint64(len(out.Records))
		out.Ops = out.Attempted - out.Failed
		if want := uint64(2 * in.Sizes.Trials); out.Attempted != want {
			out.Problems = append(out.Problems, fmt.Sprintf("%d trial runs recorded, want %d", out.Attempted, want))
		}
		out.Fingerprint = digest(out.Records...)
	})
	return out
}

func chaosOptions(in *gen.Inputs, forks, workers int) campaign.ChaosOptions {
	return campaign.ChaosOptions{Seed: in.ChaosSeed, Forks: forks, MaxK: 2, Workers: workers}
}

// chaosSetup warms one base world and cuts a single fork from it.
func chaosSetup(in *gen.Inputs) {
	campaign.RunChaos(chaosOptions(in, 1, 1))
}

// chaosRep runs the fork sweep.
func chaosRep(in *gen.Inputs, threads int, m *meter.Meter) Outcome {
	var res campaign.ChaosResult
	m.Timed("run", func() {
		res = campaign.RunChaos(chaosOptions(in, in.Sizes.Forks, threads))
	})
	var out Outcome
	m.Span("collect", func() {
		for _, t := range res.Trials {
			out.Records = append(out.Records, recordDigest(t))
			if failedOutcome(t.Outcome) {
				out.Failed++
				out.Problems = append(out.Problems, fmt.Sprintf("fork %d: %s %s", t.ID, t.Outcome, t.Err))
			}
		}
		out.Attempted = uint64(len(res.Trials))
		out.Ops = out.Attempted - out.Failed
		if out.Attempted != uint64(in.Sizes.Forks) {
			out.Problems = append(out.Problems, fmt.Sprintf("%d forks recorded, want %d", out.Attempted, in.Sizes.Forks))
		}
		out.Fingerprint = digest(out.Records...)
	})
	return out
}
