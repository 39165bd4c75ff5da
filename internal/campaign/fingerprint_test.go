package campaign

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"netfi/internal/core"
	"netfi/internal/host"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
)

// chaosFingerprint renders the world after a trial into fresh buffers (a
// trial renders into its world's own, world.fp) and returns the text a
// trial record's Fingerprint is the SHA-256 of.
func chaosFingerprint(tb *Testbed, mon *monitor.Plane, rels []*host.Reliable) string {
	var f fingerprintBuf
	f.render(tb, mon, rels)
	return string(f.text)
}

// chaosFingerprintFmt is the fmt rendering chaosFingerprint replaced, kept
// as its oracle: the text's digest is compared across forks and rebuilds
// and recorded by the benchmark, so the append-built text must match it
// byte for byte.
func chaosFingerprintFmt(tb *Testbed, mon *monitor.Plane, rels []*host.Reliable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel now=%d processed=%d\n", tb.K.Now(), tb.K.Processed())
	for p := 0; p < tb.Switch.Ports(); p++ {
		writeCountersFmt(&b, fmt.Sprintf("sw0.p%d", p), tb.Switch.PortCounters(p))
	}
	fmt.Fprintf(&b, "sw0 held=%d\n", tb.Switch.HeldOutputs())
	for _, n := range tb.Nodes {
		writeCountersFmt(&b, n.Name(), n.Interface().Counters())
		fmt.Fprintf(&b, "%s stats=%+v dead=%v\n", n.Name(), n.Stats(), n.Dead())
	}
	if tb.Injector != nil {
		for _, dir := range []struct {
			name string
			d    core.Direction
		}{{"out", DirOutbound}, {"in", DirInbound}} {
			e := tb.Injector.Engine(dir.d)
			chars, matches, injections := e.Stats()
			fmt.Fprintf(&b, "inj.%s chars=%d matches=%d injections=%d resets=%d captures=%d dropped=%d\n",
				dir.name, chars, matches, injections, e.ResetsSeen(),
				len(e.Capture().Events()), e.Capture().DroppedEvents())
			for _, r := range e.Rules() {
				rm, rf, _ := e.RuleCounters(r.ID)
				fmt.Fprintf(&b, "inj.%s rule%d matches=%d fires=%d\n", dir.name, r.ID, rm, rf)
			}
		}
	}
	for _, c := range tb.cables {
		for _, l := range []interface {
			Name() string
			Stats() (uint64, uint64)
			SeveredChars() uint64
		}{c.LeftToRight, c.RightToLeft} {
			chars, bursts := l.Stats()
			fmt.Fprintf(&b, "link %s chars=%d bursts=%d severed=%d\n",
				l.Name(), chars, bursts, l.SeveredChars())
		}
	}
	for i, r := range rels {
		fmt.Fprintf(&b, "rel%d %+v outstanding=%d\n", i, r.Stats(), r.Outstanding())
	}
	fmt.Fprintf(&b, "mon ticks=%d overflow=%d exported=%d dropped=%d\n",
		mon.Ticks(), mon.EventOverflow(), mon.Ring().Exported(), mon.Ring().Dropped())
	for _, e := range mon.Events() {
		fmt.Fprintf(&b, "event %v\n", e)
	}
	for _, rec := range mon.Ring().Records() {
		fmt.Fprintf(&b, "flow %s %v pkts=%d bytes=%d %d..%d cause=%v\n",
			rec.Tap, rec.Key, rec.Packets, rec.Bytes, rec.First, rec.Last, rec.Cause)
	}
	for _, t := range mon.Taps() {
		bursts, chars, packets, control := t.Stats()
		fmt.Fprintf(&b, "tap %s bursts=%d chars=%d data=%d other=%d\n",
			t.Name(), bursts, chars, packets, control)
	}
	return b.String()
}

// writeCountersFmt renders one counter block with the drop reasons that
// occurred in reason order, as the drop map once did.
func writeCountersFmt(b *strings.Builder, label string, c *myrinet.Counters) {
	fmt.Fprintf(b, "%s sent=%d recv=%d fwd=%d in=%d out=%d stops=%d/%d gos=%d/%d sto=%d lto=%d ovf=%d lr=%d rr=%d wd=%d bt=%d fl=%d drops=",
		label, c.PacketsSent, c.PacketsReceived, c.PacketsForwarded,
		c.CharsIn, c.CharsOut, c.StopsSent, c.StopsReceived, c.GosSent,
		c.GosReceived, c.ShortTimeouts, c.LongTimeouts, c.OverflowChars,
		c.LinkResets, c.ResetsReceived, c.StopWatchdogFires,
		c.BlockedTimeouts, c.FlushedChars)
	for r, n := range c.Drops {
		if n > 0 {
			fmt.Fprintf(b, "%d:%d,", r, n)
		}
	}
	b.WriteByte('\n')
}

// TestChaosFingerprintMatchesFmtOracle requires the append-built text to
// equal the fmt rendering on the worlds TestForkEquivalence compares (the
// same seed × plan forks, half of them cut from an armed-rules base), on
// the armed base itself, and on at least one world whose counters carry
// drop reasons — the part of the text most easily rendered wrong — and
// each trial's Fingerprint to be the SHA-256 of its world's text.
func TestChaosFingerprintMatchesFmtOracle(t *testing.T) {
	check := func(what string, b *chaosBase, got string) bool {
		t.Helper()
		if want := chaosFingerprintFmt(b.tb, b.mon, b.rels); got != want {
			t.Errorf("%s: fingerprint differs from the fmt oracle", what)
			diffFingerprints(t, got, want)
			return false
		}
		return true
	}
	combos, withDrops := 0, 0
	for seed := int64(1); combos < 30; seed++ {
		opts := chaosTestOptions(seed*7919, 3)
		opts.ArmedRules = seed%2 == 0
		base := newChaosBase(opts.Seed, opts)
		if opts.ArmedRules && !check(fmt.Sprintf("armed base seed %d", opts.Seed), base, chaosFingerprint(base.tb, base.mon, base.rels)) {
			return
		}
		for _, plan := range GenerateForkPlans(opts) {
			combos++
			f, err := base.fork()
			if err != nil {
				t.Fatalf("seed %d plan %d: fork: %v", opts.Seed, plan.ID, err)
			}
			tr := runChaosTrial(f, plan, opts)
			what, text := fmt.Sprintf("seed %d plan %d (%s)", opts.Seed, plan.ID, plan), chaosFingerprint(f.tb, f.mon, f.rels)
			if !check(what, f, text) {
				return
			}
			if tr.Fingerprint != sha256.Sum256([]byte(text)) {
				t.Errorf("%s: the record's fingerprint is not the SHA-256 of its world's text", what)
				return
			}
			if strings.Contains(text, ",\n") {
				withDrops++
			}
		}
	}
	if withDrops == 0 {
		t.Error("no compared world recorded a drop; the drop rendering went unchecked")
	}
}

// planLabelFmt is the fmt rendering ForkPlan.String replaced, kept as its
// oracle: the label is a trial record field the benchmark digests.
func planLabelFmt(p ForkPlan) string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		target := ""
		switch f.Kind {
		case FaultNodeDeath, FaultLinkSever:
			target = fmt.Sprintf("node%d", f.Node)
		case FaultCorrupt:
			target = f.Family
		case FaultWatchdogOff:
			target = "sw0"
		}
		parts[i] = fmt.Sprintf("%s(%s)@%.1fms", f.Kind, target, f.Delay.Seconds()*1000)
	}
	return strings.Join(parts, " + ")
}

// TestPlanLabelMatchesFmtOracle requires every plan label of the
// benchmark's seed-42 chaos sweep (1,500 plans, every fault kind) to equal
// the fmt rendering, both from String and rendered in turn into one kept
// buffer, as a world renders its trials' labels.
func TestPlanLabelMatchesFmtOracle(t *testing.T) {
	var buf fingerprintBuf
	kinds := map[FaultKind]bool{}
	for _, p := range GenerateForkPlans(ChaosOptions{Seed: 81669166, Forks: 1500, MaxK: 2}) {
		want := planLabelFmt(p)
		if got := p.String(); got != want {
			t.Fatalf("plan %d: String() = %q, want %q", p.ID, got, want)
		}
		if got := buf.label(p); got != want {
			t.Fatalf("plan %d: label = %q, want %q", p.ID, got, want)
		}
		for _, f := range p.Faults {
			kinds[f.Kind] = true
		}
	}
	if len(kinds) != 4 {
		t.Errorf("the sweep drew %d fault kinds, want all 4", len(kinds))
	}
}
