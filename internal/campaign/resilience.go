package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"netfi/internal/host"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// TrialOutcome classifies one resilience trial. The triage extends the paper's
// active/passive fault split (§4.4) with the recovery layer's vocabulary:
// how, not just whether, the network absorbed the fault.
type TrialOutcome string

const (
	// OutcomeMasked — the fault landed (or missed) without any observable
	// application effect: every message arrived on the first attempt.
	OutcomeMasked TrialOutcome = "masked"
	// OutcomeRetransmitted — the fault destroyed traffic, and the reliable
	// transport's retry restored it end to end.
	OutcomeRetransmitted TrialOutcome = "retransmitted"
	// OutcomeResetRecovered — a link reset or watchdog had to break a
	// wedged path before delivery could complete.
	OutcomeResetRecovered TrialOutcome = "reset-recovered"
	// OutcomeDegraded — the trial terminated but messages were lost for
	// good (the transport gave up, or a plain-UDP run lost traffic).
	OutcomeDegraded TrialOutcome = "degraded"
	// OutcomeDropped — recovery-off only: messages vanished with the
	// network itself still healthy.
	OutcomeDropped TrialOutcome = "dropped"
	// OutcomeHung — the paper's failure mode: a path stayed wedged, either
	// as frozen progress or a switch output still owned after the network
	// drained (§4.3.1's blocked-forever packet).
	OutcomeHung TrialOutcome = "hung"
	// OutcomeWallClock — the trial's real-time escape hatch tripped; the
	// result is timing-dependent and reported apart.
	OutcomeWallClock TrialOutcome = "wallclock"
	// OutcomeError — the trial panicked; see ChaosTrial.Err.
	OutcomeError TrialOutcome = "error"
)

// ResilienceTrial records one randomized injection and its triage.
type ResilienceTrial struct {
	ID      int
	Family  string
	Command string       // the RULE ADD line armed over the serial console
	ArmAt   sim.Duration // when the line was queued, relative to traffic start
	Outcome TrialOutcome
	Quiesce string // drained / stalled / deadline (from RunUntilQuiescent)
	Elapsed sim.Duration

	Sent        int
	Delivered   uint64
	Retransmits uint64
	GaveUp      uint64
	// RecoveryEvents sums link resets, RESETs received, stop-watchdog and
	// blocked-timeout fires over every switch port and interface.
	RecoveryEvents uint64
	// Injections is the injector's own count of characters it perturbed.
	Injections uint64
	// ResetsOnWire is the injector's RESET-symbol observation (the figure
	// STAT reports as resets=), both directions summed.
	ResetsOnWire uint64
	// HeldOutputs is the switch's owned-output count after quiescence.
	HeldOutputs int

	// Detection axis (the monitoring plane runs armed in every trial).
	// InjectedAt is when the first fault landed on the wire, relative to
	// traffic start; negative when the rule never fired.
	InjectedAt sim.Duration
	// Detected reports whether the plane raised any event at or after
	// the injection.
	Detected bool
	// DetectLatency is first-event time minus injection time.
	DetectLatency sim.Duration
	// DetectSource names the first detector that fired, as
	// "source/detail" (e.g. "node1.rx/phi", "net.drops/loss-burst").
	DetectSource string
	// FlowsExported counts NetFlow records the plane's switch taps
	// exported over the trial.
	FlowsExported uint64
}

// ResilienceResult pairs the recovery-on sweep with its recovery-off rerun
// on the same seeds.
type ResilienceResult struct {
	Trials   []ResilienceTrial // recovery layer enabled
	Baseline []ResilienceTrial // recovery disabled: the paper's hardware
}

// ResilienceOptions parameterizes the campaign.
type ResilienceOptions struct {
	Seed int64
	// Trials per sweep. Zero selects 14 (each fault family twice).
	Trials int
	// Messages sent by the tapped node per trial. Zero selects 6;
	// minimum 3 (the tail-fault family needs a penultimate message).
	Messages int
	// Gap paces the messages. Zero selects 10 ms — wide enough that a
	// serially-armed rule lands between two specific packets.
	Gap sim.Duration
	// Workers runs trials on a worker pool; <= 1 is serial. Results are
	// identical either way (each trial is a self-contained simulation).
	Workers int
}

func (o *ResilienceOptions) fillDefaults() {
	if o.Trials == 0 {
		o.Trials = 2 * len(faultFamilies)
	}
	o.Messages, o.Gap = workloadDefaults(o.Messages, o.Gap)
}

// workloadDefaults fills a trial workload's unset size and pacing: 6
// messages (at least 3, so a tail fault has a penultimate message to follow)
// 10 ms apart.
func workloadDefaults(messages int, gap sim.Duration) (int, sim.Duration) {
	if messages < 3 {
		messages = 6
	}
	if gap == 0 {
		gap = 10 * sim.Millisecond
	}
	return messages, gap
}

// resilienceRuleID is the rule slot every trial arms (one rule per trial;
// the testbed is rebuilt from scratch between trials).
const resilienceRuleID = 70

// faultPlan is one trial's randomized injection, fixed before any traffic so
// the recovery-on and recovery-off runs of the same seed see the same fault.
type faultPlan struct {
	cmd  string
	tail bool // arm between the penultimate and final message
}

// faultFamilies spans the ISSUE's sweep axes: control symbols, GAPs, route
// bytes, and CRC integrity. Each builder may draw from rng; the draw count
// per family is what keeps a seed's plan identical across reruns.
var faultFamilies = []struct {
	name  string
	build func(rng *rand.Rand, nodes int) faultPlan
}{
	{"go-drop", func(rng *rand.Rand, nodes int) faultPlan {
		// A lost GO is the benign end of the spectrum: the short-period
		// timeout acts as GO ~200 ns later (§4.3.1).
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP PAT C03", resilienceRuleID)}
	}},
	{"gap-drop", func(rng *rand.Rand, nodes int) faultPlan {
		// A packet-terminating GAP vanishes mid-stream; the next train
		// merges into it and dies on the destination's CRC check.
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP PAT C0C", resilienceRuleID)}
	}},
	{"gap-drop-tail", func(rng *rand.Rand, nodes int) faultPlan {
		// The same fault on the final packet: no later train ever
		// terminates the merged stream — the paper's wedge.
		return faultPlan{tail: true, cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP PAT C0C", resilienceRuleID)}
	}},
	{"gap-to-stop", func(rng *rand.Rand, nodes int) faultPlan {
		// "Erroneous flow control symbols" (§4.3.1): the terminator
		// becomes a phantom STOP, unframing the train and pausing the
		// reverse path at once.
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT REPLACE PAT C0C VEC C0F", resilienceRuleID)}
	}},
	{"route-toggle", func(rng *rand.Rand, nodes int) faultPlan {
		// §4.3.2 source-route corruption: flip low bits of a switch hop
		// so the packet exits a wrong (possibly unattached) port. The
		// MSB stays set — the hop still addresses the switch.
		target := 1 + rng.Intn(nodes-1)
		vec := 1 + rng.Intn(7)
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT TOGGLE PAT %02X VEC %02X",
			resilienceRuleID, myrinet.SwitchHop(target), vec)}
	}},
	{"crc-stale", func(rng *rand.Rand, nodes int) faultPlan {
		// Payload corruption with the CRC left stale: the link delivers
		// the packet, the destination's CRC-8 check rejects it.
		vec := 1 + rng.Intn(255)
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT TOGGLE PAT %02X VEC %02X",
			resilienceRuleID, resiliencePayloadFill, vec)}
	}},
	{"truncate", func(rng *rand.Rand, nodes int) faultPlan {
		// Delete a run of payload characters: the shortened packet fails
		// length and CRC checks downstream.
		k := 2 + rng.Intn(6)
		return faultPlan{cmd: fmt.Sprintf(
			"RULE ADD %d MODE ONCE ACT DROP:%d PAT %02X",
			resilienceRuleID, k, resiliencePayloadFill)}
	}},
}

// resiliencePayloadFill is the message body byte. 0x55 is clear of every
// control-symbol code, the MAC bytes, and the transport header, so the
// payload-pattern families fire inside the payload proper.
const resiliencePayloadFill = 0x55

const resiliencePayloadLen = 20 // > max truncate run, so framing survives

const resiliencePort = 7000

// recoveryEventCount sums the recovery layer's activity over the whole
// network: every switch port and every host interface.
func recoveryEventCount(tb *Testbed) uint64 {
	var n uint64
	for p := 0; p < tb.Switch.Ports(); p++ {
		c := tb.Switch.PortCounters(p)
		n += c.LinkResets + c.ResetsReceived + c.StopWatchdogFires + c.BlockedTimeouts
	}
	for _, nd := range tb.Nodes {
		c := nd.Interface().Counters()
		n += c.LinkResets + c.ResetsReceived + c.StopWatchdogFires + c.BlockedTimeouts
	}
	return n
}

// armNetProbes adds the loss / recovery / wedge probes over the network
// counters. They are campaign-owned closures, not part of any cloned world, so
// runTrial arms them on whichever world runs.
func armNetProbes(mon *monitor.Plane, tb *Testbed) {
	mon.AddLossProbe("net.drops", func() uint64 {
		var n uint64
		for p := 0; p < tb.Switch.Ports(); p++ {
			n += tb.Switch.PortCounters(p).TotalDrops()
		}
		for _, nd := range tb.Nodes {
			n += nd.Interface().Counters().TotalDrops()
		}
		return n
	})
	mon.AddCounterProbe("net.recovery", "recovery", func() uint64 {
		return recoveryEventCount(tb)
	})
	mon.AddWedgeProbe("sw0.held", func() int { return tb.Switch.HeldOutputs() })
}

// trialPayload is the message body every trial message carries. Senders
// copy it, so every trial shares it read-only.
var trialPayload = bytes.Repeat([]byte{resiliencePayloadFill}, resiliencePayloadLen)

// trialRecovery is the recovery layer as the campaigns enable it: watchdogs
// shorter than the transport's first RTO, so a wedge is broken by a reset
// before the retry needs the path back.
var trialRecovery = myrinet.RecoveryConfig{
	Enabled:        true,
	BlockedTimeout: 15 * sim.Millisecond,
	StopWatchdog:   25 * sim.Millisecond,
}

// world is what a trial runs on: a test bed with its monitoring plane,
// reliable endpoints and heartbeat beacons. A fresh world (freshWorld) is the
// bed alone, and runTrial arms the rest once the faults are scheduled; a
// warmed world (newChaosBase) carries them, with history, into a rebuilt
// trial or into every fork cut from it.
type world struct {
	tb    *Testbed
	mon   *monitor.Plane
	rels  []*host.Reliable
	hbs   []*host.Heartbeat
	start sim.Time // trial start: fault onsets and sends count from here

	// objects is how many objects a fork of this world registers with its
	// mapper, learned from the first fork; later forks size the mapper's
	// table to it up front. Forks run concurrently, hence the atomic.
	objects atomic.Int64
}

// freshWorld readies a just-built bed: the injector's direction is set over
// the console, and nothing else runs yet.
func freshWorld(tb *Testbed) *world {
	tb.Configure("DIR L")
	return &world{tb: tb, start: tb.K.Now()}
}

// arm starts the world's monitoring plane: flow-export taps on every
// attached switch input and arrival-side accrual detectors on the two lowest
// untapped nodes, fed by heartbeat beacons between them — beacons never cross
// the injector's cable, preserving the workload discipline the fault
// families rely on. The beacons and the sampling clock stop horizon from
// now. The beacon sockets carry no handler, so a chaos base clones as built.
// With reliable set, arm also binds the reliable transport on every node,
// with RTOs longer than trialRecovery's watchdogs.
func (w *world) arm(horizon sim.Duration, reliable bool) {
	tb, until := w.tb, w.tb.K.Now()+sim.Time(horizon)
	w.mon = monitor.NewPlane(tb.K, monitor.Config{
		SampleInterval: sim.Millisecond,
		FlowIdle:       25 * sim.Millisecond,
	})
	for p := 0; p < tb.Switch.Ports(); p++ {
		if tb.Switch.Attached(p) {
			w.mon.TapSwitchPort(tb.Switch, p, monitor.TapOptions{Flows: true})
		}
	}
	var beat []int
	for i := range tb.Nodes {
		if i != tb.cfg.TapNode && len(beat) < 2 {
			beat = append(beat, i)
		}
	}
	if len(beat) == 2 {
		for _, i := range beat {
			w.mon.TapInterface(tb.Nodes[i].Interface(), monitor.TapOptions{Detect: true})
			if _, err := tb.Nodes[i].Bind(host.HeartbeatPort, nil); err != nil {
				panic(err) // a constant port, bound once on a freshly built node
			}
		}
		for i, src := range beat {
			hb := host.NewHeartbeat(tb.K, tb.Nodes[src], host.HeartbeatConfig{
				Dst: NodeMAC(beat[1-i]), Until: until,
			})
			hb.Start()
			w.hbs = append(w.hbs, hb)
		}
	}
	w.mon.SetStopAt(until)
	w.mon.Start()
	if !reliable {
		return
	}
	w.rels = make([]*host.Reliable, len(tb.Nodes))
	for i, n := range tb.Nodes {
		r, err := host.NewReliable(n, resiliencePort, host.ReliableConfig{
			InitialRTO: 40 * sim.Millisecond,
			MaxRTO:     80 * sim.Millisecond,
			MaxRetries: 5,
		})
		if err != nil {
			panic(err) // a constant port, bound once on a freshly built node
		}
		w.rels[i] = r
	}
}

// trialWorkload is what a trial offers: messages payloads from the tapped
// node, gap apart, to node dst — or, when dst is 0, to each peer in turn.
type trialWorkload struct {
	messages int
	gap      sim.Duration
	dst      int
	// plainUDP sends bare datagrams, the paper's stack, in place of the
	// reliable transport: nothing is acknowledged and nothing retried.
	plainUDP bool
}

// trialResult is what runTrial observed: the fields both trial records
// share, plus what triage reads. Counters are the trial's own: a warmed
// world's history is subtracted.
type trialResult struct {
	Outcome        TrialOutcome
	Quiesce        string
	Elapsed        sim.Duration
	Outstanding    int // messages the reliable transport still holds
	Delivered      uint64
	Retransmits    uint64
	GaveUp         uint64
	RecoveryEvents uint64
	Injections     uint64
	HeldOutputs    int
	InjectedAt     sim.Duration // first fault onset from world start; -1 when none landed
	Detected       bool
	DetectLatency  sim.Duration
	DetectSource   string
	FlowsExported  uint64
}

// runTrial is the one trial procedure: schedule the faults on w, offer the
// workload, run to quiescence (for at most wallClock of real time, when
// nonzero), triage, and read the detection axis off the plane.
func runTrial(w *world, faults []Fault, wl trialWorkload, wallClock time.Duration) trialResult {
	tb := w.tb
	// The first observable fault onset: node deaths and severs mark it at
	// their scheduled instant, corrupt rules when the injector fires. The
	// injection hooks are campaign-owned, so a fork re-arms them here.
	var faultAt sim.Time
	faulted := false
	mark := func() {
		if !faulted {
			faulted, faultAt = true, tb.K.Now()
		}
	}
	tb.Injector.Engine(DirOutbound).SetInjectionHook(mark)
	tb.Injector.Engine(DirInbound).SetInjectionHook(mark)
	for _, f := range faults {
		switch f.Kind {
		case FaultNodeDeath, FaultLinkSever:
			node := tb.Nodes[f.Node]
			cable, kill := tb.Net.Cables[node.Name()], f.Kind == FaultNodeDeath
			tb.K.After(f.Delay, func() {
				if kill {
					node.Kill()
				}
				cable.Sever()
				mark()
			})
		case FaultWatchdogOff:
			tb.K.After(f.Delay, func() {
				tb.Switch.SetRecovery(myrinet.RecoveryConfig{})
			})
		case FaultCorrupt:
			rule := f.Rule
			tb.K.After(f.Delay, func() { tb.Console.Send(rule) })
		}
	}
	if w.mon == nil {
		// A fresh world. The beacons and the sampling clock end past the
		// last message and every recovery watchdog, so the detectors cover
		// the whole fault window yet the queue still drains in healthy
		// trials (and end-of-workload silence is never mistaken for
		// failure).
		w.arm(sim.Duration(wl.messages-1)*wl.gap+60*sim.Millisecond, !wl.plainUDP)
	}
	mon := w.mon
	armNetProbes(mon, tb)
	// Baselines: a warmed world carries its warm-up's counters.
	recovery0, flows0, injections0 := recoveryEventCount(tb), mon.Ring().Exported(), tb.Injections()

	// The workload. Plain UDP shows progress as datagrams received or
	// forwarded, the reliable transport as messages settled or paths reset.
	tap, rels, plain := tb.TapNode(), w.rels, wl.plainUDP
	for i := 0; i < wl.messages; i++ {
		dst := wl.dst
		if dst == 0 {
			dst = 1 + i%(len(tb.Nodes)-1)
		}
		to := NodeMAC(dst)
		tb.K.After(sim.Duration(i)*wl.gap, func() {
			if plain {
				tap.SendUDP(to, resiliencePort, resiliencePort, trialPayload)
			} else {
				rels[0].Send(to, trialPayload)
			}
		})
	}
	var progress func() uint64
	var socks []*host.Socket
	var rel0 host.ReliableStats
	if plain {
		socks = make([]*host.Socket, len(tb.Nodes))
		for i, n := range tb.Nodes {
			s, err := n.Bind(resiliencePort, nil)
			if err != nil {
				panic(err) // a constant port, bound once on a freshly built node
			}
			socks[i] = s
		}
		progress = func() uint64 {
			n := received(socks)
			for p := 0; p < tb.Switch.Ports(); p++ {
				n += tb.Switch.PortCounters(p).PacketsForwarded
			}
			return n
		}
	} else {
		rel0 = rels[0].Stats()
		progress = func() uint64 {
			s := rels[0].Stats()
			return s.Delivered + s.Retransmits + s.GaveUp + recoveryEventCount(tb)
		}
	}

	q := tb.K.RunUntilQuiescent(sim.QuiesceConfig{
		Progress:   progress,
		StallAfter: 300 * sim.Millisecond,
		Deadline:   3 * sim.Second,
		WallClock:  wallClock,
	})
	r := trialResult{
		Quiesce:        q.Outcome(),
		Elapsed:        q.Elapsed,
		Delivered:      received(socks),
		RecoveryEvents: recoveryEventCount(tb) - recovery0,
		Injections:     tb.Injections() - injections0,
		HeldOutputs:    tb.Switch.HeldOutputs(),
		InjectedAt:     -1,
	}
	mon.Stop()
	r.FlowsExported = mon.Ring().Exported() - flows0
	if !plain {
		rel := rels[0]
		s := rel.Stats()
		r.Outstanding = rel.Outstanding()
		r.Delivered = s.Delivered - rel0.Delivered
		r.Retransmits = s.Retransmits - rel0.Retransmits
		r.GaveUp = s.GaveUp - rel0.GaveUp
	}
	r.Outcome = triage(q, r, wl.messages, !plain)
	if faulted {
		r.InjectedAt = sim.Duration(faultAt - w.start)
		if e, found := mon.FirstEventAtOrAfter(faultAt); found {
			r.Detected = true
			r.DetectLatency = sim.Duration(e.Time - faultAt)
			r.DetectSource = e.Source + "/" + e.Detail
		}
	}
	return r
}

// received sums the datagrams the sockets handed to their application.
func received(socks []*host.Socket) uint64 {
	var n uint64
	for _, s := range socks {
		n += s.Received()
	}
	return n
}

// triage classifies a finished trial of sent messages. Every sign of a wedge
// is a hang, whichever workload ran. The rest is keyed on the workload: only
// a transport that retries can hold messages, retransmit, or need a reset to
// deliver, and what it loses it has degraded; plain UDP's losses are drops.
func triage(q sim.QuiesceResult, r trialResult, sent int, retries bool) TrialOutcome {
	switch {
	case q.WallClockHit:
		return OutcomeWallClock
	case retries && r.Outstanding > 0:
		// Accepted traffic neither delivered nor abandoned. (The
		// transport's Sent is always Delivered + GaveUp + Outstanding, so
		// no separate count of accepted messages is needed.)
		return OutcomeHung
	case q.Stalled || q.DeadlineHit:
		// Progress froze with events pending, or never settled.
		return OutcomeHung
	case r.HeldOutputs > 0:
		// Drained, but a switch output is still owned: §4.3.1's
		// forever-held path, waiting for a GAP that will never come.
		return OutcomeHung
	case r.Delivered != uint64(sent) && retries:
		// Abandoned by the transport, or never sent because the sender
		// died.
		return OutcomeDegraded
	case r.Delivered != uint64(sent):
		return OutcomeDropped
	case !retries:
		return OutcomeMasked
	case r.RecoveryEvents > 0:
		return OutcomeResetRecovered
	case r.Retransmits > 0:
		return OutcomeRetransmitted
	default:
		return OutcomeMasked
	}
}

// runResilienceTrial executes one fault injection against a fresh testbed.
// With recovery enabled the workload is the reliable transport; disabled, it
// is plain UDP — the paper's stack, which loses or wedges instead.
func runResilienceTrial(seed int64, trial int, opts ResilienceOptions, recovery bool) ResilienceTrial {
	rc := myrinet.RecoveryConfig{}
	if recovery {
		rc = trialRecovery
	}
	tb := NewTestbed(TestbedConfig{Seed: seed, Recovery: rc})

	// Fix the fault before any other randomness so recovery-on and -off
	// runs of one seed inject identically.
	fam := faultFamilies[trial%len(faultFamilies)]
	plan := fam.build(tb.K.Rand(), len(tb.Nodes))
	armSpan := sim.Duration(opts.Messages-2) * opts.Gap
	var armAt sim.Duration
	if plan.tail {
		// Land after the penultimate GAP but before the final message:
		// the serial line itself takes ~87 us per byte to decode.
		armAt = armSpan + 3*sim.Millisecond
	} else {
		armAt = sim.Duration(tb.K.Rand().Int63n(int64(armSpan)))
	}

	r := runTrial(freshWorld(tb),
		[]Fault{{Kind: FaultCorrupt, Rule: plan.cmd, Family: fam.name, Delay: armAt}},
		trialWorkload{messages: opts.Messages, gap: opts.Gap, plainUDP: !recovery}, 0)
	return ResilienceTrial{
		ID: trial, Family: fam.name, Command: plan.cmd, ArmAt: armAt,
		Outcome: r.Outcome, Quiesce: r.Quiesce, Elapsed: r.Elapsed, Sent: opts.Messages,
		Delivered: r.Delivered, Retransmits: r.Retransmits, GaveUp: r.GaveUp,
		RecoveryEvents: r.RecoveryEvents, Injections: r.Injections,
		ResetsOnWire: tb.Injector.Engine(DirOutbound).ResetsSeen() +
			tb.Injector.Engine(DirInbound).ResetsSeen(),
		HeldOutputs: r.HeldOutputs, InjectedAt: r.InjectedAt, Detected: r.Detected,
		DetectLatency: r.DetectLatency, DetectSource: r.DetectSource, FlowsExported: r.FlowsExported,
	}
}

// RunResilience sweeps randomized injections with the recovery layer
// enabled, then reruns the identical faults (same seeds, same plans) with
// recovery disabled to reproduce the paper's failure modes side by side.
func RunResilience(opts ResilienceOptions) ResilienceResult {
	opts.fillDefaults()
	type pair struct{ on, off ResilienceTrial }
	pairs := RunTrials(opts.Trials, opts.Workers, func(t int) pair {
		seed := opts.Seed + int64(t)*7919
		return pair{
			on:  runResilienceTrial(seed, t, opts, true),
			off: runResilienceTrial(seed, t, opts, false),
		}
	})
	var res ResilienceResult
	for _, p := range pairs {
		res.Trials = append(res.Trials, p.on)
		res.Baseline = append(res.Baseline, p.off)
	}
	return res
}

// triaged is a trial record the shared tallies accept: verdict gives back
// the outcome and detection axis of the trialResult it was built from.
type triaged interface{ verdict() trialResult }

func (t ResilienceTrial) verdict() trialResult {
	return trialResult{Outcome: t.Outcome, InjectedAt: t.InjectedAt,
		Detected: t.Detected, DetectLatency: t.DetectLatency, DetectSource: t.DetectSource}
}

func (t ChaosTrial) verdict() trialResult {
	return trialResult{Outcome: t.Outcome, InjectedAt: t.InjectedAt,
		Detected: t.Detected, DetectLatency: t.DetectLatency, DetectSource: t.DetectSource}
}

// CountOutcomes tallies a sweep's triage.
func CountOutcomes[T triaged](trials []T) map[TrialOutcome]int {
	m := make(map[TrialOutcome]int)
	for _, t := range trials {
		m[t.verdict().Outcome]++
	}
	return m
}

// DetectionStats summarizes one sweep's detection axis.
type DetectionStats struct {
	// Injected counts trials whose fault actually landed on the wire.
	Injected int
	// NonMasked counts injected trials with any observable effect
	// (outcome != masked) — the denominator the ISSUE's ≥90% bound uses.
	NonMasked int
	// Detected / DetectedNonMasked count plane detections among them.
	Detected          int
	DetectedNonMasked int
	// Latencies holds the detection latencies of detected trials, sorted
	// ascending: the detection-latency CDF.
	Latencies []sim.Duration
}

// ComputeDetection tallies the detection axis of a sweep.
func ComputeDetection[T triaged](trials []T) DetectionStats {
	var s DetectionStats
	for _, trial := range trials {
		t := trial.verdict()
		if t.InjectedAt < 0 {
			continue
		}
		s.Injected++
		masked := t.Outcome == OutcomeMasked
		if !masked {
			s.NonMasked++
		}
		if t.Detected {
			s.Detected++
			if !masked {
				s.DetectedNonMasked++
			}
			s.Latencies = append(s.Latencies, t.DetectLatency)
		}
	}
	sort.Slice(s.Latencies, func(i, j int) bool { return s.Latencies[i] < s.Latencies[j] })
	return s
}

// CoverageNonMasked is the detected fraction of non-masked injected
// failures (1 when there were none).
func (s DetectionStats) CoverageNonMasked() float64 {
	if s.NonMasked == 0 {
		return 1
	}
	return float64(s.DetectedNonMasked) / float64(s.NonMasked)
}

// Quantile returns the q-th latency quantile (0 when nothing was detected).
func (s DetectionStats) Quantile(q float64) sim.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(s.Latencies)-1))
	return s.Latencies[i]
}

// formatDetection renders a trial's detection cell.
func formatDetection(t trialResult) string {
	switch {
	case t.InjectedAt < 0:
		return "-"
	case !t.Detected:
		return "miss"
	default:
		return fmt.Sprintf("%.1fms:%s", t.DetectLatency.Seconds()*1000, t.DetectSource)
	}
}

// FormatDetectionCDF renders the full detection-latency CDF, one step per
// detected trial.
func FormatDetectionCDF(s DetectionStats) string {
	var b strings.Builder
	for i, lat := range s.Latencies {
		fmt.Fprintf(&b, "  cdf    %7.1f ms  p=%.2f\n",
			lat.Seconds()*1000, float64(i+1)/float64(len(s.Latencies)))
	}
	return b.String()
}

// outcomeOrder fixes the tally rendering order.
var outcomeOrder = []TrialOutcome{
	OutcomeMasked, OutcomeRetransmitted, OutcomeResetRecovered,
	OutcomeDegraded, OutcomeDropped, OutcomeHung, OutcomeWallClock, OutcomeError,
}

// writeTally renders label and then each outcome's count, non-zero ones
// only, in outcomeOrder.
func writeTally(b *strings.Builder, label string, counts map[TrialOutcome]int) {
	b.WriteString(label)
	for _, o := range outcomeOrder {
		if counts[o] > 0 {
			fmt.Fprintf(b, " %s=%d", o, counts[o])
		}
	}
	b.WriteString("\n")
}

// FormatResilience renders both sweeps, their tallies, and the detection
// axis the monitoring plane adds.
func FormatResilience(r ResilienceResult) string {
	var b strings.Builder
	render := func(title string, trials []ResilienceTrial) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, t := range trials {
			fmt.Fprintf(&b, "  trial %2d  %-14s %-15s del=%d/%d retx=%d gaveup=%d resets=%d inj=%d det=%s (%s, %.1f ms)\n",
				t.ID, t.Family, t.Outcome, t.Delivered, t.Sent,
				t.Retransmits, t.GaveUp, t.RecoveryEvents, t.Injections,
				formatDetection(t.verdict()), t.Quiesce, t.Elapsed.Seconds()*1000)
		}
		writeTally(&b, "  tally:", CountOutcomes(trials))
		det := ComputeDetection(trials)
		fmt.Fprintf(&b, "  detect: %d/%d non-masked (%.0f%%), %d/%d overall, p50=%.1fms p90=%.1fms max=%.1fms\n",
			det.DetectedNonMasked, det.NonMasked, 100*det.CoverageNonMasked(),
			det.Detected, det.Injected,
			det.Quantile(0.5).Seconds()*1000, det.Quantile(0.9).Seconds()*1000,
			det.Quantile(1).Seconds()*1000)
		b.WriteString(FormatDetectionCDF(det))
	}
	render("recovery enabled:", r.Trials)
	render("recovery disabled (paper hardware):", r.Baseline)
	return b.String()
}
