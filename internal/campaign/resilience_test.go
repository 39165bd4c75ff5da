package campaign

import (
	"math/rand"
	"reflect"
	"testing"

	"netfi/internal/core"
	"netfi/internal/sim"
)

// TestFaultFamiliesArm feeds every fault family's rule, over many draws, to
// a fresh injector's command decoder: each must be answered OK, or the trial
// is labelled and triaged as that family while its fault never arms.
func TestFaultFamiliesArm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fam := range faultFamilies {
		for i := 0; i < 100; i++ {
			cmd := fam.build(rng, chaosNodes).cmd
			dec := core.NewCommandDecoder(core.NewDevice(sim.NewKernel(1), core.DeviceConfig{Name: "inj"}))
			if resp := dec.Exec(cmd); resp != "OK" {
				t.Fatalf("%s: %q answered %q", fam.name, cmd, resp)
			}
		}
	}
}

// One trial per fault family, recovery on and off, same seeds.
func runResilienceOnce(seed int64) ResilienceResult {
	return RunResilience(ResilienceOptions{Seed: seed, Trials: 7, Messages: 4})
}

func TestResilienceEveryTrialClassified(t *testing.T) {
	r := runResilienceOnce(7)
	for _, set := range [][]ResilienceTrial{r.Trials, r.Baseline} {
		if len(set) != 7 {
			t.Fatalf("sweep has %d trials, want 7", len(set))
		}
		for _, tr := range set {
			if tr.Outcome == "" {
				t.Errorf("trial %d (%s) unclassified", tr.ID, tr.Family)
			}
			if tr.Quiesce == "" {
				t.Errorf("trial %d (%s) has no quiescence verdict", tr.ID, tr.Family)
			}
		}
	}
}

func TestResilienceRecoveryAbsorbsFaults(t *testing.T) {
	r := runResilienceOnce(7)
	counts := CountOutcomes(r.Trials)
	if counts[OutcomeHung] != 0 {
		t.Errorf("recovery-on sweep hung %d trials:\n%s",
			counts[OutcomeHung], FormatResilience(r))
	}
	good := counts[OutcomeMasked] + counts[OutcomeRetransmitted] + counts[OutcomeResetRecovered]
	if good <= len(r.Trials)/2 {
		t.Errorf("only %d/%d trials absorbed:\n%s", good, len(r.Trials), FormatResilience(r))
	}
	if counts[OutcomeResetRecovered] == 0 {
		t.Errorf("no trial needed a link reset — the wedge family should:\n%s",
			FormatResilience(r))
	}
	// Every recovery-on trial must deliver or give up — never leave work
	// outstanding (the ISSUE's zero-unterminated-hangs requirement).
	for _, tr := range r.Trials {
		if tr.Delivered+tr.GaveUp != uint64(tr.Sent) {
			t.Errorf("trial %d (%s): %d delivered + %d gave up != %d sent",
				tr.ID, tr.Family, tr.Delivered, tr.GaveUp, tr.Sent)
		}
	}
}

func TestResilienceBaselineReproducesPaperHang(t *testing.T) {
	r := runResilienceOnce(7)
	counts := CountOutcomes(r.Baseline)
	if counts[OutcomeHung] == 0 {
		t.Fatalf("recovery-off rerun produced no hang:\n%s", FormatResilience(r))
	}
	for _, tr := range r.Baseline {
		if tr.Outcome != OutcomeHung {
			continue
		}
		// The paper's signature: a switch output still owned after the
		// network went quiet, or progress frozen with events pending.
		if tr.HeldOutputs == 0 && tr.Quiesce == "drained" {
			t.Errorf("trial %d (%s) hung without a held path or stall", tr.ID, tr.Family)
		}
		if tr.RecoveryEvents != 0 {
			t.Errorf("trial %d: recovery events fired with recovery disabled", tr.ID)
		}
	}
}

func TestResilienceWedgeTrialPair(t *testing.T) {
	// Trial 2 is the gap-drop-tail family: with recovery it must complete
	// via a reset; without, it must reproduce the hang on the same seed.
	r := runResilienceOnce(7)
	on, off := r.Trials[2], r.Baseline[2]
	if on.Family != "gap-drop-tail" || off.Family != "gap-drop-tail" {
		t.Fatalf("trial 2 families = %q/%q", on.Family, off.Family)
	}
	if on.Command != off.Command || on.ArmAt != off.ArmAt {
		t.Errorf("paired trials diverged: %q@%v vs %q@%v",
			on.Command, on.ArmAt, off.Command, off.ArmAt)
	}
	if on.Outcome != OutcomeResetRecovered {
		t.Errorf("recovery-on wedge trial = %v, want reset-recovered", on.Outcome)
	}
	if on.RecoveryEvents == 0 {
		t.Error("recovery-on wedge trial recorded no reset activity")
	}
	if off.Outcome != OutcomeHung {
		t.Errorf("recovery-off wedge trial = %v, want hung", off.Outcome)
	}
	if off.HeldOutputs == 0 {
		t.Error("recovery-off wedge left no held switch output")
	}
}

func TestResilienceDeterministicPerSeed(t *testing.T) {
	a := runResilienceOnce(21)
	b := runResilienceOnce(21)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different sweeps:\n%s\nvs\n%s",
			FormatResilience(a), FormatResilience(b))
	}
	c := runResilienceOnce(22)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical sweeps")
	}
}
