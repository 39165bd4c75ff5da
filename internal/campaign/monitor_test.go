package campaign

import (
	"reflect"
	"strings"
	"testing"

	"netfi/internal/monitor"
)

// TestResilienceDetection pins the ISSUE's acceptance bound: with the
// monitoring plane armed in every trial, at least 90% of non-masked injected
// failures are detected, and every reset-recovered trial (the wedge family,
// the paper's hang) is caught.
func TestResilienceDetection(t *testing.T) {
	r := runResilienceOnce(7)
	for name, set := range map[string][]ResilienceTrial{
		"recovery-on": r.Trials, "recovery-off": r.Baseline,
	} {
		det := ComputeDetection(set)
		if det.NonMasked == 0 {
			t.Fatalf("%s: no non-masked trials to measure detection on", name)
		}
		if c := det.CoverageNonMasked(); c < 0.9 {
			t.Errorf("%s: detection coverage %.0f%% < 90%%:\n%s",
				name, 100*c, FormatResilience(r))
		}
		for _, tr := range set {
			if tr.Outcome == OutcomeResetRecovered || tr.Outcome == OutcomeHung {
				if !tr.Detected {
					t.Errorf("%s trial %d (%s, %s) escaped detection",
						name, tr.ID, tr.Family, tr.Outcome)
				}
			}
			if tr.Detected {
				if tr.DetectLatency < 0 {
					t.Errorf("%s trial %d: negative detection latency %v",
						name, tr.ID, tr.DetectLatency)
				}
				if tr.DetectSource == "" {
					t.Errorf("%s trial %d: detected without a source", name, tr.ID)
				}
			}
		}
	}
	// The CDF is rendered from sorted latencies.
	lats := ComputeDetection(r.Trials).Latencies
	for i := 1; i < len(lats); i++ {
		if lats[i] < lats[i-1] {
			t.Fatalf("detection latencies not sorted: %v", lats)
		}
	}
}

// TestResilienceDetectionDeterministic is the detector-determinism guard the
// ISSUE asks for: the detection axis (latency, source, flow counts) must be
// byte-identical between serial and parallel sweeps of the same seed.
func TestResilienceDetectionDeterministic(t *testing.T) {
	opts := ResilienceOptions{Seed: 11, Trials: 4, Messages: 3}
	serial, parallel := opts, opts
	serial.Workers = 1
	parallel.Workers = 4
	a, b := RunResilience(serial), RunResilience(parallel)
	type detAxis struct {
		Detected bool
		Latency  string
		Source   string
		Flows    uint64
	}
	axis := func(set []ResilienceTrial) []detAxis {
		out := make([]detAxis, len(set))
		for i, tr := range set {
			out[i] = detAxis{tr.Detected, tr.DetectLatency.String(),
				tr.DetectSource, tr.FlowsExported}
		}
		return out
	}
	if !reflect.DeepEqual(axis(a.Trials), axis(b.Trials)) {
		t.Errorf("recovery-on detection axis differs serial vs parallel:\n%v\nvs\n%v",
			axis(a.Trials), axis(b.Trials))
	}
	if !reflect.DeepEqual(axis(a.Baseline), axis(b.Baseline)) {
		t.Errorf("recovery-off detection axis differs serial vs parallel:\n%v\nvs\n%v",
			axis(a.Baseline), axis(b.Baseline))
	}
}

// TestMonitorLifecycle drives the scripted monitor demonstration and checks
// the full detection narrative: wedge anomaly, accrual suspicion, recovery
// observation, and flow export.
func TestMonitorLifecycle(t *testing.T) {
	r := RunMonitor(SectionOptions{Seed: 1})
	if r.Delivered != uint64(r.Sent) {
		t.Fatalf("workload delivered %d/%d", r.Delivered, r.Sent)
	}
	if r.Injections == 0 {
		t.Fatal("scripted fault never landed")
	}
	if r.InjectedAt < 0 || !r.Detected {
		t.Fatalf("fault not detected: injectedAt=%v detected=%v", r.InjectedAt, r.Detected)
	}
	kinds := map[monitor.EventKind]int{}
	details := map[string]int{}
	for _, e := range r.Events {
		kinds[e.Kind]++
		details[e.Detail]++
	}
	if kinds[monitor.EventSuspect] == 0 {
		t.Errorf("no accrual suspicion raised; events=%v", r.Events)
	}
	if kinds[monitor.EventRecover] == 0 {
		t.Errorf("suspected path never observed recovering; events=%v", r.Events)
	}
	if details["wedge"] == 0 {
		t.Errorf("wedge probe silent across a held-output episode; events=%v", r.Events)
	}
	if r.FlowsExported == 0 || len(r.Flows) == 0 {
		t.Fatal("no flows exported")
	}
	for _, f := range r.Flows {
		if f.Packets == 0 || f.Last < f.First {
			t.Errorf("malformed flow record %+v", f)
		}
	}
	out := FormatMonitor(r)
	for _, want := range []string{"workload:", "detected:", "suspect", "flow", "tap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatMonitor missing %q:\n%s", want, out)
		}
	}
	// Same seed, same narrative.
	if again := RunMonitor(SectionOptions{Seed: 1}); !reflect.DeepEqual(r, again) {
		t.Error("RunMonitor not deterministic for a fixed seed")
	}
}
