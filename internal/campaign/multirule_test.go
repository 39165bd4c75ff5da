package campaign

import "testing"

// TestMultiRuleSinglePass is the acceptance check for the multi-rule trigger
// engine: nine concurrent rules (seven per-target REPLACE, one shared
// TOGGLE, one capture-only watch — eight of them corrupting) armed in one
// serial configuration pass must all match and corrupt correctly in a
// single stream pass.
func TestMultiRuleSinglePass(t *testing.T) {
	res := RunMultiRule(SectionOptions{Seed: 77})

	if res.RulesArmed != res.Targets+2 || res.RulesArmed < 8 {
		t.Fatalf("rules armed = %d, want %d (>= 8)", res.RulesArmed, res.Targets+2)
	}
	if res.Mode != "dfa" {
		t.Errorf("compiled mode = %q, want dfa (states=%d)", res.Mode, res.DFAStates)
	}
	if res.TargetsDroppedByCRC != res.Targets {
		t.Errorf("targets dropped by CRC = %d/%d", res.TargetsDroppedByCRC, res.Targets)
	}
	if !res.NoneDelivered {
		t.Error("a corrupted packet was delivered to an application")
	}
	for i := 1; i <= res.Targets; i++ {
		if res.PerRuleFires[i] != 1 {
			t.Errorf("target rule %d fired %d times, want 1", i, res.PerRuleFires[i])
		}
	}
	if res.ToggleFires != uint64(res.Targets) {
		t.Errorf("shared toggle fired %d times, want %d", res.ToggleFires, res.Targets)
	}
	if res.WatchMatches != uint64(res.Targets) {
		t.Errorf("capture watch matched %d packets, want %d", res.WatchMatches, res.Targets)
	}
}

// TestMultiRuleDeterminism re-runs the experiment with the same seed and
// requires identical outcomes — the §4.2 known-good-state reset requirement
// extended to the rule engine.
func TestMultiRuleDeterminism(t *testing.T) {
	a := RunMultiRule(SectionOptions{Seed: 5})
	b := RunMultiRule(SectionOptions{Seed: 5})
	if FormatMultiRule(a) != FormatMultiRule(b) {
		t.Errorf("same seed, different outcomes:\n%s\nvs\n%s", FormatMultiRule(a), FormatMultiRule(b))
	}
}
