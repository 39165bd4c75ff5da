package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"netfi/internal/core"
	"netfi/internal/host"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// The chaos engine: warm one testbed, fork it per failure scenario. A fork
// deep-copies the entire simulation world (kernel, network, hosts,
// injector, console, monitoring plane) through sim.Mapper, so thousands of
// divergent scenarios pay for warmup exactly once. Scenarios are
// declarative ForkPlans — k faults with individual onset delays — generated
// up front from the campaign seed and run on the fork by runTrial, the one
// trial procedure resilience and the monitor demo run on fresh beds.
// Correctness rests on fork equivalence: running a plan on a fork must be
// byte-identical to running it on a freshly built, identically warmed
// testbed (TestForkEquivalence pins it).

// FaultKind names one fault primitive.
type FaultKind string

const (
	// FaultNodeDeath kills a workstation and severs its cable: the host
	// goes silent mid-conversation, the way a crashed OS with a powered
	// NIC does not.
	FaultNodeDeath FaultKind = "node-death"
	// FaultLinkSever cuts a node's cable both ways; the host keeps
	// transmitting into the void.
	FaultLinkSever FaultKind = "link-sever"
	// FaultCorrupt arms an injection rule over the serial console — the
	// paper's fault families (GAP drops, phantom STOPs, route and CRC
	// corruption) drawn at random.
	FaultCorrupt FaultKind = "corrupt"
	// FaultWatchdogOff disables the switch's recovery watchdogs: latent
	// on its own, it turns an otherwise recoverable wedge into the
	// paper's forever-held output when combined with a second fault.
	FaultWatchdogOff FaultKind = "watchdog-off"
)

// Fault is one declarative failure: what, where, when.
type Fault struct {
	Kind FaultKind
	// Node is the target node index (node-death, link-sever).
	Node int
	// Rule is the RULE ADD console line (corrupt only).
	Rule string
	// Family names the corrupt rule's fault family (reporting only).
	Family string
	// Delay is the onset, relative to trial start.
	Delay sim.Duration
}

// String renders "kind(target)@delay".
func (f Fault) String() string {
	target := ""
	switch f.Kind {
	case FaultNodeDeath, FaultLinkSever:
		target = fmt.Sprintf("node%d", f.Node)
	case FaultCorrupt:
		target = f.Family
	case FaultWatchdogOff:
		target = "sw0"
	}
	return fmt.Sprintf("%s(%s)@%.1fms", f.Kind, target, f.Delay.Seconds()*1000)
}

// ForkPlan is one fork's failure scenario: k faults composed on one world.
type ForkPlan struct {
	ID     int
	Faults []Fault
}

// K reports the combination order (fault count).
func (p ForkPlan) K() int { return len(p.Faults) }

// String joins the faults with " + ".
func (p ForkPlan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, " + ")
}

// ChaosTrial is one fork's run and triage. The detection axis mirrors
// ResilienceTrial: InjectedAt is the first fault's observable onset.
type ChaosTrial struct {
	ID      int
	Plan    string
	K       int
	Outcome TrialOutcome
	Quiesce string
	Elapsed sim.Duration

	Sent           int
	Delivered      uint64
	Retransmits    uint64
	GaveUp         uint64
	RecoveryEvents uint64
	Injections     uint64
	HeldOutputs    int

	InjectedAt    sim.Duration // first fault onset; -1 when none landed
	Detected      bool
	DetectLatency sim.Duration
	DetectSource  string
	FlowsExported uint64

	// Err carries a panic surfaced by the worker pool's fault isolation;
	// Outcome is OutcomeError and every other field is zero.
	Err string

	// Fingerprint is the full-world digest the fork-equivalence gate
	// compares (counters, event log, flow records, kernel clock).
	Fingerprint string
}

// ChaosOptions parameterizes a sweep.
type ChaosOptions struct {
	Seed int64
	// Forks is the scenario count. Zero selects 64.
	Forks int
	// MaxK caps faults per fork; plans cycle k = 1..MaxK. Zero selects
	// 2 (singles and pairs); 3 adds triples.
	MaxK int
	// Messages is the reliable workload size per fork. Zero selects 6.
	Messages int
	// Gap paces the messages. Zero selects 10 ms.
	Gap sim.Duration
	// Workers sizes the fork worker pool; <= 1 is serial.
	Workers int
	// WallClock, when nonzero, bounds each fork in real time — the
	// escape hatch that keeps one livelocked fork from wedging a sweep.
	WallClock time.Duration
	// Rebuild runs every plan on a freshly built testbed instead of a
	// fork — the warm-path control the benchmark and the equivalence
	// gate compare against.
	Rebuild bool
	// ArmedRules pre-arms a small multi-rule trigger program on the
	// injector before warmup, so every fork is cut from a world with live
	// rule-engine state — match counters, capture events, and the compiled
	// prefilter driving the batch wake table — and the equivalence gate
	// proves that state clones exactly.
	ArmedRules bool
}

func (o *ChaosOptions) fillDefaults() {
	if o.Forks == 0 {
		o.Forks = 64
	}
	if o.MaxK == 0 {
		o.MaxK = 2
	}
	if o.MaxK > 3 {
		o.MaxK = 3
	}
	o.Messages, o.Gap = workloadDefaults(o.Messages, o.Gap)
}

// chaosNodes is the testbed size (the paper's Fig. 10 bed).
const chaosNodes = 3

// chaosWarm is the shared warmup: long enough for the accrual detectors to
// calibrate on a full inter-arrival window (75 heartbeat samples at 2 ms),
// RTT estimators to converge, flow caches to populate, and the warm
// traffic's acks to drain, so the fork point has no closure-form events
// pending. A sweep pays this once; every fork inherits the history free —
// which is the engine's entire advantage over rebuilding per scenario.
const chaosWarm = 150 * sim.Millisecond

// GenerateForkPlans derives the sweep's scenarios from the seed alone:
// plan i carries k = 1 + i mod MaxK faults, each with kind, target, and
// onset drawn from one serial RNG, so a sweep is reproducible from
// (Seed, Forks, MaxK) and any plan can be rerun in isolation.
func GenerateForkPlans(opts ChaosOptions) []ForkPlan {
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	span := sim.Duration(opts.Messages-1) * opts.Gap
	kinds := []FaultKind{FaultCorrupt, FaultNodeDeath, FaultLinkSever, FaultCorrupt, FaultWatchdogOff}
	plans := make([]ForkPlan, opts.Forks)
	for i := range plans {
		k := 1 + i%opts.MaxK
		faults := make([]Fault, k)
		for j := range faults {
			f := Fault{
				Kind:  kinds[rng.Intn(len(kinds))],
				Delay: sim.Duration(rng.Int63n(int64(span))),
			}
			switch f.Kind {
			case FaultNodeDeath, FaultLinkSever:
				f.Node = rng.Intn(chaosNodes)
			case FaultCorrupt:
				fam := faultFamilies[rng.Intn(len(faultFamilies))]
				f.Family = fam.name
				f.Rule = fam.build(rng, chaosNodes).cmd
			}
			faults[j] = f
		}
		plans[i] = ForkPlan{ID: i, Faults: faults}
	}
	return plans
}

// chaosBase is a warmed world forks are cut from. After newChaosBase the
// kernel is paused at the fork point with only trampoline-form events
// pending, so Clone never trips the closure-discipline check.
type chaosBase = world

// newChaosBase builds and warms one testbed: recovery armed, injector
// direction configured, reliable endpoints on every node, flow-export taps
// on every attached switch port, accrual detectors fed by heartbeats
// between the untapped nodes, and a little primed traffic so RTT
// estimators, flow caches, and detector windows all carry history into
// every fork.
func newChaosBase(seed int64, opts ChaosOptions) *chaosBase {
	opts.fillDefaults()
	w := freshWorld(NewTestbed(TestbedConfig{Seed: seed, Recovery: trialRecovery}))
	if opts.ArmedRules {
		// Pre-armed rules: the ONCE toggle corrupts one warm payload byte
		// (the reliable layer retransmits, so warmup still drains) and
		// leaves an injection plus a completed capture in the base; the
		// contiguous CAP pair fires on every payload run and compiles a
		// prefilter; the gapped rule keeps partial-match lanes live; the
		// last never fires. Every fork then inherits live executor,
		// capture-ring, and batch-plan state.
		w.tb.Configure(
			"RULE ADD 60 MODE ONCE ACT TOGGLE PAT 55 55 VEC -- 01",
			"RULE ADD 61 ACT CAP PAT 55 55",
			"RULE ADD 62 ACT CAP PAT 55 G2 7E",
			"RULE ADD 63 ACT CAP PAT 3A 3B",
		)
	}

	span := sim.Duration(opts.Messages-1) * opts.Gap
	w.arm(chaosWarm+span+opts.Gap+80*sim.Millisecond, true)

	// Warm traffic: one message from the tapped node to each peer, fully
	// drained, so every fork starts with calibrated RTTs and warm caches.
	for i := 1; i < len(w.tb.Nodes); i++ {
		w.rels[0].Send(NodeMAC(i), trialPayload)
	}
	w.tb.K.RunFor(chaosWarm)
	w.start = w.tb.K.Now()
	return w
}

// fork deep-copies the base into an independent world: phase 1 clones the
// kernel, phase 2 walks the model graph, phase 3 resolves every deferred
// cross-reference. Campaign-owned hooks (probes, injection hooks) are not
// part of any world and are re-armed by runTrial.
func (b *chaosBase) fork() (*chaosBase, error) {
	m := sim.NewMapperSize(int(b.objects.Load()))
	b.tb.K.Clone(m)
	tb2 := b.tb.Clone(m)
	mon2 := b.mon.Clone(m)
	rels2 := make([]*host.Reliable, len(b.rels))
	for i, r := range b.rels {
		rels2[i] = r.Clone(m)
	}
	hbs2 := make([]*host.Heartbeat, len(b.hbs))
	for i, h := range b.hbs {
		hbs2[i] = h.Clone(m)
	}
	if err := m.Finish(); err != nil {
		return nil, err
	}
	b.objects.CompareAndSwap(0, int64(m.Objects()))
	return &chaosBase{tb: tb2, mon: mon2, rels: rels2, hbs: hbs2, start: b.start}, nil
}

// runChaosTrial applies one plan to a warmed world (a fork, or a freshly
// warmed base — the equivalence gate demands the two be indistinguishable)
// and digests the world it leaves.
func runChaosTrial(b *chaosBase, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	opts.fillDefaults()
	r := runTrial(b, plan.Faults, trialWorkload{messages: opts.Messages, gap: opts.Gap}, opts.WallClock)
	return ChaosTrial{
		ID: plan.ID, Plan: plan.String(), K: plan.K(),
		Outcome: r.Outcome, Quiesce: r.Quiesce, Elapsed: r.Elapsed, Sent: opts.Messages,
		Delivered: r.Delivered, Retransmits: r.Retransmits, GaveUp: r.GaveUp,
		RecoveryEvents: r.RecoveryEvents, Injections: r.Injections, HeldOutputs: r.HeldOutputs,
		InjectedAt: r.InjectedAt, Detected: r.Detected, DetectLatency: r.DetectLatency,
		DetectSource: r.DetectSource, FlowsExported: r.FlowsExported,
		Fingerprint: chaosFingerprint(b.tb, b.mon, b.rels),
	}
}

// runForkChaosTrial cuts a fork from the warmed base and runs the plan on
// it. The base is read-only during the clone, so forks cut concurrently.
func runForkChaosTrial(base *chaosBase, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	fork, err := base.fork()
	if err != nil {
		panic(fmt.Sprintf("chaos: fork %d: %v", plan.ID, err))
	}
	return runChaosTrial(fork, plan, opts)
}

// runRebuiltChaosTrial is the control path: warm a fresh world from
// scratch and run the same plan. Fork equivalence demands its result be
// byte-identical to runForkChaosTrial's.
func runRebuiltChaosTrial(seed int64, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	return runChaosTrial(newChaosBase(seed, opts), plan, opts)
}

// ChaosResult is one sweep's full record.
type ChaosResult struct {
	Seed   int64
	Forks  int
	MaxK   int
	Trials []ChaosTrial
}

// RunChaos warms one base testbed, forks it per generated plan across the
// worker pool, and triages every fork. A panicking fork is isolated by
// RunTrialsErr and reported as OutcomeError rather than killing the sweep.
func RunChaos(opts ChaosOptions) ChaosResult {
	opts.fillDefaults()
	plans := GenerateForkPlans(opts)
	var base *chaosBase
	if !opts.Rebuild {
		base = newChaosBase(opts.Seed, opts)
	}
	trials, errs := RunTrialsErr(len(plans), opts.Workers, func(i int) ChaosTrial {
		if opts.Rebuild {
			return runRebuiltChaosTrial(opts.Seed, plans[i], opts)
		}
		return runForkChaosTrial(base, plans[i], opts)
	})
	for i, err := range errs {
		if err != nil {
			trials[i] = ChaosTrial{
				ID:         plans[i].ID,
				Plan:       plans[i].String(),
				K:          plans[i].K(),
				Outcome:    OutcomeError,
				InjectedAt: -1,
				Err:        err.Error(),
			}
		}
	}
	return ChaosResult{Seed: opts.Seed, Forks: opts.Forks, MaxK: opts.MaxK, Trials: trials}
}

// chaosTrialLines caps the per-fork detail a sweep report prints; beyond
// it only the aggregates follow (a 10k-fork sweep is not a line printer).
const chaosTrialLines = 24

// FormatChaos renders the sweep: per-fork lines (capped), per-class and
// per-k tallies, and the detection-latency CDF in deciles.
func FormatChaos(r ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: %d forks from one warmed base (k <= %d, seed %d)\n",
		len(r.Trials), r.MaxK, r.Seed)
	for i, t := range r.Trials {
		if i == chaosTrialLines {
			fmt.Fprintf(&b, "  ... %d more forks\n", len(r.Trials)-chaosTrialLines)
			break
		}
		if t.Err != "" {
			fmt.Fprintf(&b, "  fork %4d  k=%d %-15s %s\n", t.ID, t.K, t.Outcome, t.Err)
			continue
		}
		fmt.Fprintf(&b, "  fork %4d  k=%d %-15s del=%d/%d retx=%d gaveup=%d resets=%d inj=%d det=%s (%s, %.1f ms)  %s\n",
			t.ID, t.K, t.Outcome, t.Delivered, t.Sent, t.Retransmits,
			t.GaveUp, t.RecoveryEvents, t.Injections,
			formatDetection(t.verdict()), t.Quiesce, t.Elapsed.Seconds()*1000, t.Plan)
	}
	writeTally(&b, "  tally:", CountOutcomes(r.Trials))
	perK := make(map[int]map[TrialOutcome]int)
	for _, t := range r.Trials {
		if perK[t.K] == nil {
			perK[t.K] = make(map[TrialOutcome]int)
		}
		perK[t.K][t.Outcome]++
	}
	for k := 1; k <= r.MaxK; k++ {
		if perK[k] != nil {
			writeTally(&b, fmt.Sprintf("  k=%d:", k), perK[k])
		}
	}
	det := ComputeDetection(r.Trials)
	fmt.Fprintf(&b, "  detect: %d/%d non-masked (%.0f%%), %d/%d overall\n",
		det.DetectedNonMasked, det.NonMasked, 100*det.CoverageNonMasked(),
		det.Detected, det.Injected)
	if len(det.Latencies) > 0 {
		for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			fmt.Fprintf(&b, "  cdf    %7.1f ms  p=%.1f\n",
				det.Quantile(q).Seconds()*1000, q)
		}
	}
	return b.String()
}

// chaosFingerprint digests the world after a trial: kernel clock and event
// count, every STAT counter on every port, interface, and engine, link
// totals, transport statistics, and the monitoring plane's complete event
// log, flow records, and tap totals. Two runs with equal fingerprints
// executed the same events in the same order against the same state — the
// byte-identity the fork-equivalence gate compares.
//
// Every trial digests its world once, so the text is appended into one
// buffer sized for it, with strconv rather than fmt: the per-value boxing
// and Builder growth of a Fprintf rendering cost more objects than the
// fork. fingerprint_test.go keeps that rendering as the oracle.
func chaosFingerprint(tb *Testbed, mon *monitor.Plane, rels []*host.Reliable) string {
	events, records := mon.Events(), mon.Ring().Records()
	b := make([]byte, 0, 4096+96*len(events)+128*len(records))
	b = appendUint(b, "kernel now=", uint64(tb.K.Now()))
	b = appendUint(b, " processed=", tb.K.Processed())
	b = append(b, '\n')
	for p := 0; p < tb.Switch.Ports(); p++ {
		b = appendUint(b, "sw0.p", uint64(p))
		b = appendCounters(b, tb.Switch.PortCounters(p))
	}
	b = appendUint(b, "sw0 held=", uint64(tb.Switch.HeldOutputs()))
	b = append(b, '\n')
	for _, n := range tb.Nodes {
		b = appendCounters(append(b, n.Name()...), n.Interface().Counters())
		b = fmt.Appendf(append(b, n.Name()...), " stats=%+v dead=", n.Stats())
		b = strconv.AppendBool(b, n.Dead())
		b = append(b, '\n')
	}
	if tb.Injector != nil {
		for _, dir := range []struct {
			name string
			d    core.Direction
		}{{"out", DirOutbound}, {"in", DirInbound}} {
			e := tb.Injector.Engine(dir.d)
			chars, matches, injections := e.Stats()
			b = append(append(b, "inj."...), dir.name...)
			b = appendUint(b, " chars=", chars)
			b = appendUint(b, " matches=", matches)
			b = appendUint(b, " injections=", injections)
			b = appendUint(b, " resets=", e.ResetsSeen())
			b = appendUint(b, " captures=", uint64(len(e.Capture().Events())))
			b = appendUint(b, " dropped=", e.Capture().DroppedEvents())
			b = append(b, '\n')
			for _, r := range e.Rules() {
				rm, rf, _ := e.RuleCounters(r.ID)
				b = append(append(b, "inj."...), dir.name...)
				b = appendUint(b, " rule", uint64(r.ID))
				b = appendUint(b, " matches=", rm)
				b = appendUint(b, " fires=", rf)
				b = append(b, '\n')
			}
		}
	}
	names := make([]string, 0, len(tb.Net.Cables))
	for name := range tb.Net.Cables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := tb.Net.Cables[name]
		for _, l := range [2]*phy.Link{c.LeftToRight, c.RightToLeft} {
			chars, bursts := l.Stats()
			b = append(append(b, "link "...), l.Name()...)
			b = appendUint(b, " chars=", chars)
			b = appendUint(b, " bursts=", bursts)
			b = appendUint(b, " severed=", l.SeveredChars())
			b = append(b, '\n')
		}
	}
	for i, r := range rels {
		b = fmt.Appendf(appendUint(b, "rel", uint64(i)), " %+v", r.Stats())
		b = appendUint(b, " outstanding=", uint64(r.Outstanding()))
		b = append(b, '\n')
	}
	b = appendUint(b, "mon ticks=", mon.Ticks())
	b = appendUint(b, " overflow=", mon.EventOverflow())
	b = appendUint(b, " exported=", mon.Ring().Exported())
	b = appendUint(b, " dropped=", mon.Ring().Dropped())
	b = append(b, '\n')
	for _, e := range events {
		b = append(append(b, "event "...), e.String()...)
		b = append(b, '\n')
	}
	for _, rec := range records {
		b = append(append(b, "flow "...), rec.Tap...)
		b = rec.Key.Append(append(b, ' '))
		b = appendUint(b, " pkts=", rec.Packets)
		b = appendUint(b, " bytes=", rec.Bytes)
		b = strconv.AppendInt(append(b, ' '), int64(rec.First), 10)
		b = strconv.AppendInt(append(b, ".."...), int64(rec.Last), 10)
		b = append(append(b, " cause="...), rec.Cause.String()...)
		b = append(b, '\n')
	}
	for _, t := range mon.Taps() {
		bursts, chars, packets, control := t.Stats()
		b = append(append(b, "tap "...), t.Name()...)
		b = appendUint(b, " bursts=", bursts)
		b = appendUint(b, " chars=", chars)
		b = appendUint(b, " data=", packets)
		b = appendUint(b, " other=", control)
		b = append(b, '\n')
	}
	return string(b)
}

// appendUint appends label, then v in decimal.
func appendUint(b []byte, label string, v uint64) []byte {
	return strconv.AppendUint(append(b, label...), v, 10)
}

// appendCounters appends one counter block — the caller has written its
// label — with the non-zero drop reasons in reason order.
func appendCounters(b []byte, c *myrinet.Counters) []byte {
	b = appendUint(b, " sent=", c.PacketsSent)
	b = appendUint(b, " recv=", c.PacketsReceived)
	b = appendUint(b, " fwd=", c.PacketsForwarded)
	b = appendUint(b, " in=", c.CharsIn)
	b = appendUint(b, " out=", c.CharsOut)
	b = appendUint(b, " stops=", c.StopsSent)
	b = appendUint(b, "/", c.StopsReceived)
	b = appendUint(b, " gos=", c.GosSent)
	b = appendUint(b, "/", c.GosReceived)
	b = appendUint(b, " sto=", c.ShortTimeouts)
	b = appendUint(b, " lto=", c.LongTimeouts)
	b = appendUint(b, " ovf=", c.OverflowChars)
	b = appendUint(b, " lr=", c.LinkResets)
	b = appendUint(b, " rr=", c.ResetsReceived)
	b = appendUint(b, " wd=", c.StopWatchdogFires)
	b = appendUint(b, " bt=", c.BlockedTimeouts)
	b = appendUint(b, " fl=", c.FlushedChars)
	b = append(b, " drops="...)
	for r, n := range c.Drops {
		if n > 0 {
			b = appendUint(strconv.AppendInt(b, int64(r), 10), ":", n)
			b = append(b, ',')
		}
	}
	return append(b, '\n')
}
