package campaign

import (
	"strings"
	"testing"

	"netfi/internal/core"
	"netfi/internal/monitor"
	"netfi/internal/sim"
)

func TestTestbedBaselineLossFree(t *testing.T) {
	// The Fig. 10 test bed under full contended load, injector in
	// pass-through: flow control must make the baseline loss-free.
	tb := NewTestbed(TestbedConfig{Seed: 1})
	load := tb.StartLoad(LoadConfig{})
	tb.K.RunFor(2 * sim.Second)
	load.Stop()
	tb.K.RunFor(100 * sim.Millisecond)
	if load.Sent() == 0 {
		t.Fatal("load sent nothing")
	}
	if load.Received() != load.Sent() {
		t.Errorf("baseline loss: sent %d received %d (%.1f%%)",
			load.Sent(), load.Received(), 100*load.LossRate())
	}
	if load.CorruptAccepted() != 0 {
		t.Errorf("corrupt payloads accepted at baseline: %d", load.CorruptAccepted())
	}
	// ~800 msg/s per node x 3 nodes x 2 s.
	if load.Sent() < 4000 || load.Sent() > 5200 {
		t.Errorf("sent = %d, want ~4800", load.Sent())
	}
}

func TestTestbedFlowControlActive(t *testing.T) {
	// The contended workload must actually exercise STOP/GO — the Table 4
	// campaign corrupts those symbols, so they need to exist.
	tb := NewTestbed(TestbedConfig{Seed: 1})
	load := tb.StartLoad(LoadConfig{})
	tb.K.RunFor(sim.Second)
	load.Stop()
	tb.K.RunFor(50 * sim.Millisecond)
	var stops, gos uint64
	for p := 0; p < tb.Switch.Ports(); p++ {
		c := tb.Switch.PortCounters(p)
		stops += c.StopsSent
		gos += c.GosSent
	}
	if stops == 0 || gos == 0 {
		t.Errorf("no flow control under contended load: stops=%d gos=%d", stops, gos)
	}
}

func TestTestbedMappingWarmup(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1, Mapping: true, MapPeriod: 100 * sim.Millisecond})
	// After warmup every node must have routes to both others.
	for i, n := range tb.Nodes {
		for j := range tb.Nodes {
			if i == j {
				continue
			}
			if _, ok := n.Interface().Route(NodeMAC(j)); !ok {
				t.Errorf("node %d missing route to node %d after warmup", i, j)
			}
		}
	}
	if !tb.Nodes[2].Interface().MCP().IsMapper() {
		t.Error("highest-ID node is not the mapper")
	}
}

func TestTestbedSerialConfiguration(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	tb.Configure("DIR L", "MODE ONCE", "COMPARE -- -- -- C0F")
	if tb.Injector.Engine(DirOutbound).Config().Match != core.MatchOnce {
		t.Error("serial configuration did not reach the injector")
	}
	for _, r := range tb.Console.Responses() {
		if r != "OK" {
			t.Errorf("unexpected response %q", r)
		}
	}
}

// TestConfigureWaitsForEveryAnswer: Configure returns only once the board
// has answered every line, RULE ADD lines past their 3 ms budget included;
// a STAT's data lines are part of its answer, not answers of their own; and
// the first line not answered OK is named in the error, with the board's
// line.
func TestConfigureWaitsForEveryAnswer(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	if err := tb.Configure("DIR L", "STAT"); err != nil {
		t.Fatal(err)
	}
	if got := tb.Console.Responses(); answers(got) != 2 || len(got) <= 2 {
		t.Fatalf("responses %q: want 2 answers and STAT's data lines", got)
	}
	// Two lines of ~60 characters: ~5 ms each at 115200 baud, against
	// a 6 ms budget for both.
	if err := tb.Configure(
		"RULE ADD 1 PRIO 1 ACT REPLACE PAT 40 40 12 06 VEC -- -- 71 --",
		"RULE ADD 2 MODE ONCE ACT CAP PAT 55 55 G2 7E 3A 3B 3C 3D"); err != nil {
		t.Fatal(err)
	}
	if n := len(tb.Injector.Engine(DirOutbound).Rules()); n != 2 {
		t.Fatalf("%d rules armed when Configure returned, want 2", n)
	}
	err := tb.Configure("MODE ONCE", "RULE ADD 70 MODE ONCE ACT DROP:9 PAT 55", "MODE ON")
	if err == nil || !strings.Contains(err.Error(), `"RULE ADD 70 MODE ONCE ACT DROP:9 PAT 55" -> "ERR `) {
		t.Fatalf("a refused line gave %v, want it named with the board's ERR line", err)
	}
}

func TestTestbedDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		tb := NewTestbed(TestbedConfig{Seed: 42})
		load := tb.StartLoad(LoadConfig{})
		tb.K.RunFor(500 * sim.Millisecond)
		load.Stop()
		tb.K.RunFor(50 * sim.Millisecond)
		return load.Sent(), load.Received()
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Errorf("runs diverged: (%d,%d) vs (%d,%d)", s1, r1, s2, r2)
	}
}

// tapInjector attaches a flow tap of a new monitoring plane to the
// injector's outbound input: the §3.2 per-identifier statistics.
func tapInjector(tb *Testbed) (*monitor.Plane, *monitor.Tap) {
	plane := monitor.NewPlane(tb.K, monitor.Config{})
	tap := plane.NewTap("inj.out", monitor.TapOptions{Flows: true})
	tb.Injector.SetTap(DirOutbound, tap)
	return plane, tap
}

func TestTestbedInjectorSeesTraffic(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	plane, tap := tapInjector(tb)
	load := tb.StartLoad(LoadConfig{})
	tb.K.RunFor(200 * sim.Millisecond)
	load.Stop()
	tb.K.RunFor(50 * sim.Millisecond)
	chars, _, _ := tb.Injector.Engine(DirOutbound).Stats()
	if chars == 0 {
		t.Error("injector saw no outbound characters")
	}
	if _, _, packets, _ := tap.Stats(); packets == 0 {
		t.Error("the injector's tap counted no packets")
	}
	// The per-identifier counters must attribute traffic to the tapped
	// node's source address (§3.2 statistics gathering).
	plane.Stop() // export the open flows
	key := monitor.FlowKey{Src: [6]byte(NodeMAC(0)), Dst: [6]byte(NodeMAC(1))}
	var pairs uint64
	for _, rec := range plane.Ring().Records() {
		if rec.Key == key {
			pairs += rec.Packets
		}
	}
	if pairs == 0 {
		t.Error("no packets attributed to tap->node1")
	}
}

// TestForkRebindsDeviceTap: a fork's injector feeds the fork plane's copy of
// its tap, and the base's tap does not move while the fork runs.
func TestForkRebindsDeviceTap(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	plane, tap := tapInjector(tb)
	tb.StartLoad(LoadConfig{})
	tb.K.RunFor(50 * sim.Millisecond)
	m := sim.NewMapper()
	tb.K.Clone(m)
	tb2 := tb.Clone(m)
	plane2 := plane.Clone(m)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	_, _, base, _ := tap.Stats()
	if base == 0 {
		t.Fatal("the base's tap counted no packets before the fork")
	}
	tb2.K.RunFor(50 * sim.Millisecond)
	if _, _, got, _ := tap.Stats(); got != base {
		t.Errorf("base tap moved from %d to %d packets while only the fork ran", base, got)
	}
	if _, _, got, _ := plane2.Taps()[0].Stats(); got <= base {
		t.Errorf("fork tap at %d packets, want more than the %d at the fork", got, base)
	}
}
