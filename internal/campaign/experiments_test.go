package campaign

import (
	"strings"
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// The experiment tests assert the SHAPE of each paper result — who loses,
// roughly how much, which mechanism fires — not exact figures (the
// substrate is a simulator, not the authors' testbed). EXPERIMENTS.md
// records the measured-vs-paper numbers.

func TestTable4RowGapCorruptionLossBand(t *testing.T) {
	r := RunTable4Row(myrinet.SymbolGap, myrinet.SymbolGo, SectionOptions{Seed: 7})
	if r.LossRate < 0.05 || r.LossRate > 0.20 {
		t.Errorf("GAP->GO loss = %.1f%%, want within the paper's band (roughly 5-20%%)", 100*r.LossRate)
	}
	if r.Outcome.Classification != "passive" {
		t.Errorf("classification = %q, want passive (data dropped, never passed on)", r.Outcome.Classification)
	}
	if r.Outcome.CorruptAccepted != 0 {
		t.Errorf("corrupt payloads accepted: %d, want 0", r.Outcome.CorruptAccepted)
	}
}

func TestTable4RowStopToGapMostLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short")
	}
	stopGap := RunTable4Row(myrinet.SymbolStop, myrinet.SymbolGap, SectionOptions{Seed: 7})
	goIdle := RunTable4Row(myrinet.SymbolGo, myrinet.SymbolIdle, SectionOptions{Seed: 7})
	// Paper ordering: STOP->GAP is the worst row (15%); GO->IDLE rows are
	// survivable. Our protocol's short-period timeout makes lost GOs
	// nearly free, so the gap is even wider here.
	if stopGap.LossRate <= goIdle.LossRate {
		t.Errorf("STOP->GAP loss %.1f%% not above GO->IDLE loss %.1f%%",
			100*stopGap.LossRate, 100*goIdle.LossRate)
	}
	if stopGap.LossRate < 0.08 {
		t.Errorf("STOP->GAP loss = %.1f%%, want >= 8%%", 100*stopGap.LossRate)
	}
}

func TestTable4EveryRowLosesSomething(t *testing.T) {
	if testing.Short() {
		t.Skip("full nine-row campaign; skipped in -short")
	}
	rows := RunTable4(SectionOptions{Seed: 7})
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Sent < 3000 {
			t.Errorf("%v->%v sent only %d messages", r.Mask, r.Replacement, r.Sent)
		}
		if r.Received > r.Sent {
			t.Errorf("%v->%v received %d > sent %d", r.Mask, r.Replacement, r.Received, r.Sent)
		}
		if r.Received == r.Sent {
			t.Errorf("%v->%v lost nothing; every corruption row must cost messages", r.Mask, r.Replacement)
		}
		if r.Outcome.CorruptAccepted != 0 {
			t.Errorf("%v->%v passed corrupt data upward (active fault)", r.Mask, r.Replacement)
		}
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "STOP") || !strings.Contains(out, "p.loss") {
		t.Error("FormatTable4 output malformed")
	}
}

func TestTable2LatencyShape(t *testing.T) {
	rows := RunTable2(SectionOptions{Seed: 3, Scale: 0.25})
	if len(rows) != 5 {
		t.Fatalf("experiments = %d, want 5", len(rows))
	}
	for _, r := range rows {
		// Per-packet time in the paper's regime (~235 us).
		if r.WithoutPerPkt < 200*sim.Microsecond || r.WithoutPerPkt > 280*sim.Microsecond {
			t.Errorf("exp %d: per-packet %v outside the ~235 us regime", r.Index, r.WithoutPerPkt)
		}
		// The added latency is sub-microsecond noise around the true
		// device latency, exactly the paper's "between 75 and 1400 ns".
		if r.AddedLatency < -500*sim.Nanosecond || r.AddedLatency > 2*sim.Microsecond {
			t.Errorf("exp %d: added latency %v outside the plausible band", r.Index, r.AddedLatency)
		}
		if r.TrueDeviceLag != 750*sim.Nanosecond {
			t.Errorf("true device latency = %v, want 750ns", r.TrueDeviceLag)
		}
	}
	// The measurements must not all be identical: the interrupt phase
	// varies per experiment.
	distinct := map[sim.Duration]bool{}
	for _, r := range rows {
		distinct[r.AddedLatency] = true
	}
	if len(distinct) < 2 {
		t.Error("added-latency measurements show no run-to-run uncertainty")
	}
}

func TestSec431ThroughputCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second throughput runs; skipped in -short")
	}
	r := RunSec431(SectionOptions{Seed: 11, Scale: 0.4})
	// Baseline near the paper's 48000 msgs/min.
	if r.BaselinePerMin < 40_000 || r.BaselinePerMin > 56_000 {
		t.Errorf("baseline = %.0f msgs/min, want ~48000", r.BaselinePerMin)
	}
	// "A decrease of almost 90%".
	if r.StopReduction < 0.75 || r.StopReduction > 0.97 {
		t.Errorf("faulty-STOP reduction = %.1f%%, want ~90%%", 100*r.StopReduction)
	}
	// "To around 12% of the normal throughput".
	if r.GapThroughputFrac < 0.05 || r.GapThroughputFrac > 0.30 {
		t.Errorf("GAP-run throughput = %.1f%% of normal, want ~12%%", 100*r.GapThroughputFrac)
	}
	// The long-period timeout must be the recovery mechanism in play.
	if r.GapLongTimeouts == 0 {
		t.Error("no long-period timeouts during the GAP run")
	}
}

func TestSec432PacketTypeCorruption(t *testing.T) {
	r := RunSec432(SectionOptions{Seed: 21})
	if !r.MappingNodeRemoved {
		t.Error("corrupted mapping exchange did not remove the node from the network")
	}
	if r.MappingSendsFailed == 0 {
		t.Error("sends to the removed node did not fail")
	}
	if !r.MappingNodeRestored {
		t.Error("node not restored by the next mapping round")
	}
	if !r.DataPacketDropped {
		t.Error("corrupted data packet not dropped as unrecognized")
	}
	if !r.DataRoutesUntouched {
		t.Error("routing tables changed after data-packet corruption")
	}
	if !r.RouteMSBConsumed || !r.RouteMSBNoIncident {
		t.Error("route-MSB packet not consumed as an error without incident")
	}
	if !r.MisrouteLost || !r.MisrouteNotAccepted {
		t.Error("misrouted packet outcome wrong (must be lost, never accepted by the wrong node)")
	}
}

func TestSec433AddressCorruption(t *testing.T) {
	r := RunSec433(SectionOptions{Seed: 31})
	if !r.DestDroppedByCRC || !r.DestNeitherReceived {
		t.Error("destination corruption must be dropped by CRC-8, received by neither node")
	}
	if !r.SelfUnreachable {
		t.Error("node with corrupted inbound address still received data")
	}
	if !r.SelfMappingWorks {
		t.Error("node stopped answering mapping packets")
	}
	if !r.SelfRoutingStable {
		t.Error("routing info changed during self-address corruption")
	}
	if !r.CtrlMapsInconsistent {
		t.Error("duplicate controller address produced consistent maps")
	}
	if !r.CtrlMapsVary {
		t.Error("faulty map was static; paper reports it varies per attempt")
	}
	if !r.GhostInMap || !r.RealGone || !r.GhostTrafficDrops {
		t.Error("nonexistent-address corruption outcome wrong")
	}
	if !strings.Contains(r.CtrlFigBefore, "CONSISTENT") || !strings.Contains(r.CtrlFigAfter, "INCONSISTENT") {
		t.Error("Fig. 11 renderings missing consistency verdicts")
	}
}

func TestSec434UDPChecksum(t *testing.T) {
	r := RunSec434(SectionOptions{Seed: 41})
	if !r.EvadingDelivered {
		t.Errorf("aligned swap not delivered; got %q", r.EvadingPayload)
	}
	if r.EvadingPayload != "veHa a lot of fun" {
		t.Errorf("payload = %q, want the paper's %q", r.EvadingPayload, "veHa a lot of fun")
	}
	if !r.NonEvadingDropped {
		t.Error("non-aligned corruption evaded the checksum")
	}
}

func TestPassThroughTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second throughput runs; skipped in -short")
	}
	r := RunPassThrough(SectionOptions{Seed: 51})
	if r.RateImpact < -0.005 || r.RateImpact > 0.005 {
		t.Errorf("rate impact = %+.3f%%, want ~0 (no observable impact)", 100*r.RateImpact)
	}
	if r.WithLoss != 0 || r.WithoutLoss != 0 {
		t.Errorf("loss with/without = %.3f/%.3f, want 0/0", r.WithLoss, r.WithoutLoss)
	}
	if !r.BothDirsSeen {
		t.Error("injector did not observe both directions")
	}
}
