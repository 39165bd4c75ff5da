package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/monitor"
	"netfi/internal/sim"
)

// TapTotals is one observation point's lifetime counters.
type TapTotals struct {
	Name    string
	Bursts  uint64
	Chars   uint64
	Packets uint64
	Control uint64
}

// MonitorResult is the monitoring-plane demonstration's full record: the
// trial's outcome plus everything the plane observed.
type MonitorResult struct {
	Trial

	Ticks        uint64
	Events       []monitor.Event
	FlowsDropped uint64
	Flows        []monitor.FlowRecord
	Taps         []TapTotals
}

// RunMonitor runs the monitoring plane through one full failure life cycle:
// a reliable workload from the tapped node to node 1, heartbeat beacons
// between the untapped nodes, flow-export taps on every switch input — then
// a tail GAP drop wedges the switch output toward node 1 (§4.3.1's
// forever-held path). The beacons starve, the accrual detector suspects the
// path, the wedge and recovery probes fire as the watchdog breaks the path,
// and the detector observes the recovery. The exported flows record the
// traffic the whole way through.
func RunMonitor(opts SectionOptions) MonitorResult {
	w := freshWorld(NewTestbed(TestbedConfig{Seed: opts.Seed, Recovery: trialRecovery}))
	// Land the GAP drop after the penultimate message's terminator: the
	// final message's train then never terminates — the paper's wedge.
	wedge := Fault{Kind: FaultCorrupt, Delay: (trialMessages-2)*trialGap + 3*sim.Millisecond,
		Rule: fmt.Sprintf("RULE ADD %d MODE ONCE ACT DROP PAT C0C", resilienceRuleID)}
	// A fixed destination: the wedged output is then the heartbeat path
	// toward node 1, so the accrual detector sees the outage directly.
	r := MonitorResult{Trial: runTrial(w, []Fault{wedge}, trialWorkload{messages: trialMessages, gap: trialGap, dst: 1})}

	mon := w.mon
	r.Ticks = mon.Ticks()
	r.Events = append([]monitor.Event(nil), mon.Events()...)
	r.FlowsDropped = mon.Ring().Dropped()
	r.Flows = mon.Ring().Records()
	for _, t := range mon.Taps() {
		bursts, chars, packets, control := t.Stats()
		r.Taps = append(r.Taps, TapTotals{
			Name: t.Name(), Bursts: bursts, Chars: chars,
			Packets: packets, Control: control,
		})
	}
	return r
}

// FormatMonitor renders the demonstration: workload line, detection line,
// the plane's event log, exported flows, and per-tap totals.
func FormatMonitor(r MonitorResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload: %d/%d delivered, %d retransmits, %d recovery events, %d injections\n",
		r.Delivered, r.Sent, r.Retransmits, r.RecoveryEvents, r.Injections)
	if r.Detected {
		fmt.Fprintf(&b, "detected: %.1f ms after injection at %.1f ms, by %s\n",
			r.DetectLatency.Seconds()*1000, r.InjectedAt.Seconds()*1000, r.DetectSource)
	} else if r.InjectedAt >= 0 {
		fmt.Fprintf(&b, "detected: MISS (injection at %.1f ms raised no event)\n",
			r.InjectedAt.Seconds()*1000)
	}
	fmt.Fprintf(&b, "plane: %d sampling passes, %d events, %d flows exported",
		r.Ticks, len(r.Events), r.FlowsExported)
	if r.FlowsDropped > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", r.FlowsDropped)
	}
	b.WriteString("\n")
	for _, e := range r.Events {
		fmt.Fprintf(&b, "  event  %v\n", e)
	}
	for _, rec := range r.Flows {
		fmt.Fprintf(&b, "  flow   %-14s %v pkts=%d bytes=%d %v..%v cause=%v\n",
			rec.Tap, rec.Key, rec.Packets, rec.Bytes, rec.First, rec.Last, rec.Cause)
	}
	for _, t := range r.Taps {
		fmt.Fprintf(&b, "  tap    %-14s bursts=%d chars=%d data=%d other=%d\n",
			t.Name, t.Bursts, t.Chars, t.Packets, t.Control)
	}
	return b.String()
}
