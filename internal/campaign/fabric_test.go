package campaign

import (
	"fmt"
	"strings"
	"testing"

	"netfi/internal/sim"
	"netfi/internal/topo"
)

// runFabricFingerprint builds, runs, and fingerprints one fabric config.
func runFabricFingerprint(t *testing.T, cfg FabricConfig) (string, *FabricTestbed) {
	t.Helper()
	tb, err := NewFabricTestbed(cfg)
	if err != nil {
		t.Fatalf("NewFabricTestbed: %v", err)
	}
	defer tb.Close()
	tb.Run()
	return fabricFingerprint(tb), tb
}

// TestFabricShardEquivalence is the small-fabric equivalence gate: a
// 2-switch/4-host fabric run sharded at 1, 2, and 4 shards must produce a
// byte-identical full-state fingerprint — STAT counters on every switch
// port and interface, link totals, flow records, per-host receive event
// logs, and the coordinator's clock and processed-event counters — across
// 20 seeds and both workloads. Shards=1 is the single-kernel path (one
// sim.Kernel executes everything, every delivery scheduled directly); 2
// and 4 split the fabric across real parallel kernels with lookahead
// windows and barrier exchange, 4 finer than the switch count. A 15-switch
// shape with deliveries landing on a window's horizon follows.
func TestFabricShardEquivalence(t *testing.T) {
	for _, workload := range []FabricWorkload{WorkloadFlood, WorkloadPingPong} {
		for seed := int64(0); seed < 20; seed++ {
			var base string
			var baseTB *FabricTestbed
			var multiExchanged uint64
			for _, shards := range []int{1, 2, 4} {
				cfg := FabricConfig{
					Topo:     topo.Config{Switches: 2, Hosts: 4, Shards: shards, Seed: seed},
					Workload: workload,
					Packets:  5,
					Payload:  48,
					Gap:      2 * sim.Microsecond,
					Record:   true,
				}
				fp, tb := runFabricFingerprint(t, cfg)
				if shards == 1 {
					base, baseTB = fp, tb
					if len(tb.F.Kernels) != 1 {
						t.Fatalf("shards=1 built %d kernels", len(tb.F.Kernels))
					}
					continue
				}
				if len(tb.F.Kernels) != shards {
					t.Fatalf("shards=%d built %d kernels", shards, len(tb.F.Kernels))
				}
				multiExchanged += tb.F.Group.Exchanged()
				if fp != base {
					t.Fatalf("workload=%s seed=%d shards=%d fingerprint diverges from single-kernel run:\n%s",
						workload, seed, shards, diffFirstLine(base, fp))
				}
			}
			// The gate must gate something: traffic flowed, and the
			// sharded runs moved deliveries across real barriers (the
			// single-kernel run schedules everything directly, so its
			// exchange count is legitimately zero).
			sent, delivered, _ := baseTB.Totals()
			if sent == 0 || delivered == 0 {
				t.Fatalf("workload=%s seed=%d: no traffic (sent=%d delivered=%d)", workload, seed, sent, delivered)
			}
			if multiExchanged == 0 {
				t.Fatalf("workload=%s seed=%d: no deliveries crossed the exchange in any sharded run", workload, seed)
			}
		}
	}
	// On the shape above no window's first event sends over the shortest
	// buffered cable, so no delivery lands exactly on a window's horizon.
	// This one (FuzzFabricShardEquivalence's first seed) has such
	// deliveries: a horizon one tick too far fails it.
	cfg := FabricConfig{
		Topo: topo.Config{Switches: 15, Hosts: 39, Shards: 1, Seed: 7,
			HostPropDelay: 176 * sim.Nanosecond, TrunkPropDelay: 11 * sim.Nanosecond},
		Packets: 2,
		Record:  true,
	}
	base, _ := runFabricFingerprint(t, cfg)
	cfg.Topo.Shards = 3
	if fp, _ := runFabricFingerprint(t, cfg); fp != base {
		t.Fatalf("%+v: fingerprint diverges from the one-shard run:\n%s", cfg.Topo, diffFirstLine(base, fp))
	}
}

// TestFabricClosEquivalence extends the gate to a multi-stage Clos: 16
// switches (2 spines, 14 leaves), 56 hosts, sharded 1 vs 5 vs 16.
func TestFabricClosEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		var base string
		for _, shards := range []int{1, 5, 16} {
			cfg := FabricConfig{
				Topo:    topo.Config{Switches: 16, Hosts: 56, Shards: shards, Seed: seed},
				Packets: 3,
				Payload: 64,
				Gap:     3 * sim.Microsecond,
				Record:  true,
			}
			fp, _ := runFabricFingerprint(t, cfg)
			if shards == 1 {
				base = fp
			} else if fp != base {
				t.Fatalf("seed=%d shards=%d fingerprint diverges:\n%s", seed, shards, diffFirstLine(base, fp))
			}
		}
	}
}

// diffFirstLine locates the first differing line of two fingerprints so a
// gate failure points at the diverging counter instead of dumping both.
func diffFirstLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "fingerprints differ in length"
}

func TestFabricDeliversAll(t *testing.T) {
	res, err := RunFabric(FabricConfig{
		Topo:    topo.Config{Switches: 16, Hosts: 64, Shards: 4, Seed: 3},
		Packets: 4,
		Gap:     3 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("fabric did not run to quiescence")
	}
	if res.Sent != 64*4 || res.Delivered != res.Sent {
		t.Fatalf("sent=%d delivered=%d, want 256/256", res.Sent, res.Delivered)
	}
	if res.Symbols == 0 || res.Windows == 0 || res.Exchanged == 0 {
		t.Fatalf("degenerate run: symbols=%d windows=%d exchanged=%d", res.Symbols, res.Windows, res.Exchanged)
	}
	if len(res.ShardEvents) != 4 {
		t.Fatalf("%d shard event counts, want 4", len(res.ShardEvents))
	}
	for s, n := range res.ShardEvents {
		if n == 0 {
			t.Fatalf("shard %d executed no events — partition left it idle", s)
		}
	}
}

// TestFabricShardCeiling guards the balance inside each window: on a
// 64-switch/512-host Clos flood split over two shards, the events the
// busiest shard runs window by window must leave a speedup ceiling of at
// least 1.8. Buffering every trunk hop until the next barrier spreads a
// packet's leaf->spine->leaf chain over windows; scheduling same-shard
// trunk hops straight into the sender's kernel read 1.36 here. One shard
// runs every event of every window, a ceiling of exactly 1.
func TestFabricShardCeiling(t *testing.T) {
	for _, tc := range []struct {
		shards int
		min    float64
	}{{1, 1}, {2, 1.8}} {
		res, err := RunFabric(FabricConfig{
			Topo:    topo.Config{Switches: 64, Hosts: 512, Shards: tc.shards, Seed: 5},
			Packets: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Drained || res.Delivered != res.Sent {
			t.Fatalf("shards=%d: drained=%v sent=%d delivered=%d", tc.shards, res.Drained, res.Sent, res.Delivered)
		}
		c := res.Ceiling()
		t.Logf("shards=%d: busiest %d of %d events, ceiling %.3f", tc.shards, res.Busiest, res.Events, c)
		if tc.shards == 1 && res.Busiest != res.Events {
			t.Errorf("one shard: busiest %d, want every event (%d)", res.Busiest, res.Events)
		}
		if c < tc.min {
			t.Errorf("shards=%d: ceiling %.3f, want >= %.2f", tc.shards, c, tc.min)
		}
	}
}

func TestFabricPingPongCompletes(t *testing.T) {
	tb, err := NewFabricTestbed(FabricConfig{
		Topo:     topo.Config{Switches: 2, Hosts: 4, Shards: 2, Seed: 11},
		Workload: WorkloadPingPong,
		Packets:  6,
		Gap:      2 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if !tb.Run() {
		t.Fatal("ping-pong fabric did not drain")
	}
	// Each of the 2 pairs plays 6 round trips = 12 one-way messages.
	sent, delivered, _ := tb.Totals()
	if sent != 24 || delivered != 24 {
		t.Fatalf("sent=%d delivered=%d, want 24/24", sent, delivered)
	}
}

// TestFabricFormat pins the CLI report's shape (not its numbers).
func TestFabricFormat(t *testing.T) {
	res, err := RunFabric(FabricConfig{
		Topo:    topo.Config{Switches: 2, Hosts: 4, Shards: 2, Seed: 1},
		Packets: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFabric(res)
	for _, want := range []string{"fabric: 2 switches, 4 hosts, 2 shards", "drained=true", "symbols/s", "shard events:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFabricNeedsTwoHosts: a workload with nobody to send to is a
// configuration error, not a divide by zero inside the first send; so is a
// workload the fabric does not know.
func TestFabricNeedsTwoHosts(t *testing.T) {
	for _, tc := range []struct {
		workload FabricWorkload
		switches int
		hosts    int
		ok       bool
	}{
		{WorkloadFlood, 1, 1, false},
		{WorkloadFlood, 2, 1, false},
		{WorkloadFlood, 4, 1, false},
		{WorkloadPingPong, 2, 1, false},
		{WorkloadFlood, 1, 2, true},
		{WorkloadPingPong, 1, 2, true},
		{"storm", 1, 2, false},
	} {
		res, err := RunFabric(FabricConfig{
			Topo:     topo.Config{Switches: tc.switches, Hosts: tc.hosts, Shards: 1, Seed: 1},
			Workload: tc.workload,
			Packets:  2,
		})
		if (err == nil) != tc.ok {
			t.Errorf("%s on %d switches / %d hosts: err = %v, want ok=%v", tc.workload, tc.switches, tc.hosts, err, tc.ok)
		}
		if tc.ok && (res.Sent == 0 || res.Delivered != res.Sent) {
			t.Errorf("%s on %d switches / %d hosts: sent=%d delivered=%d", tc.workload, tc.switches, tc.hosts, res.Sent, res.Delivered)
		}
	}
}

// TestFabricOneShardOneWindow: a one-shard fabric has no peer to wait for
// and buffers no cable, so its group runs the whole 128-switch/1024-host
// flood in a single window and exchanges nothing.
func TestFabricOneShardOneWindow(t *testing.T) {
	res, err := RunFabric(FabricConfig{
		Topo:    topo.Config{Switches: 128, Hosts: 1024, Shards: 1, Seed: 1},
		Packets: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.Sent == 0 || res.Delivered != res.Sent {
		t.Fatalf("drained=%v sent=%d delivered=%d", res.Drained, res.Sent, res.Delivered)
	}
	if res.Windows != 1 || res.Exchanged != 0 {
		t.Fatalf("%d windows, %d exchanged deliveries; want 1 and 0", res.Windows, res.Exchanged)
	}
}

// FuzzFabricShardEquivalence widens the shard equivalence gate to fuzzed
// shapes and cable delays: 1-16 switches, 2-41 hosts, 2-16 shards (spine-less
// shards and more shards than switches included), host and trunk
// propagation delays of 1-500 ns, flood or ping-pong. Whatever the shape,
// the sharded run's fingerprint must equal the one-shard run's. The fixed
// gates above run only the default delays. The first seed input puts 11 ns
// trunks under 176 ns host cables on a one-spine Clos, where two of the
// three shards hold no trunk of their own; a window one lookahead too wide
// fails it.
// Run with: go test -fuzz=FuzzFabricShardEquivalence ./internal/campaign
func FuzzFabricShardEquivalence(f *testing.F) {
	f.Add(uint8(15), uint8(39), uint8(3), int64(7), uint16(176), uint16(11), false)
	f.Add(uint8(2), uint8(4), uint8(4), int64(1), uint16(25), uint16(100), true)
	f.Add(uint8(16), uint8(41), uint8(16), int64(3), uint16(1), uint16(500), false)
	// fold keeps an in-range value and wraps any other into [lo, hi].
	fold := func(v, lo, hi int) int {
		if v >= lo && v <= hi {
			return v
		}
		return lo + v%(hi-lo+1)
	}
	f.Fuzz(func(t *testing.T, switches, hosts, shards uint8, seed int64, hostDelay, trunkDelay uint16, pingPong bool) {
		workload := WorkloadFlood
		if pingPong {
			workload = WorkloadPingPong
		}
		cfg := FabricConfig{
			Topo: topo.Config{
				Switches:       fold(int(switches), 1, 16),
				Hosts:          fold(int(hosts), 2, 41),
				Seed:           seed,
				HostPropDelay:  sim.Duration(fold(int(hostDelay), 1, 500)) * sim.Nanosecond,
				TrunkPropDelay: sim.Duration(fold(int(trunkDelay), 1, 500)) * sim.Nanosecond,
			},
			Workload: workload,
			Packets:  2,
			Record:   true,
		}
		cfg.Topo.Shards = 1
		base, _ := runFabricFingerprint(t, cfg)
		cfg.Topo.Shards = fold(int(shards), 2, 16)
		if fp, _ := runFabricFingerprint(t, cfg); fp != base {
			t.Fatalf("%+v: fingerprint diverges from the one-shard run:\n%s", cfg.Topo, diffFirstLine(base, fp))
		}
	})
}

// fabricFingerprint digests the complete post-run state: coordinator
// counters, every STAT counter on every switch port and host interface,
// per-cable link totals, workload counters, flow records, and the per-host
// receive event logs. Two runs with equal fingerprints executed the same
// events in the same order — the byte-identity the shard equivalence gate
// compares across shard counts. Shard-count-dependent quantities are
// excluded or aggregated: windows and exchanged-delivery counts depend on
// the shard count (one kernel runs one window and buffers nothing; more
// shards cut a window per lookahead of busy virtual time, and every
// buffered delivery rides the exchange), and
// per-shard clocks / per-kernel event counts appear only as the global
// last-event time and the processed-event sum, which the coordinator keeps
// partition-independent.
func fabricFingerprint(tb *FabricTestbed) string {
	var b strings.Builder
	f := tb.F
	fmt.Fprintf(&b, "fabric now=%d processed=%d drained=%v\n",
		f.Group.Now(), f.Group.Processed(), tb.drained)
	var line []byte
	for _, sw := range f.Switches {
		for p := 0; p < sw.Ports(); p++ {
			line = appendUint(append(line[:0], sw.Name()...), ".p", uint64(p))
			line = appendCounters(line, sw.PortCounters(p))
			b.Write(line)
		}
		fmt.Fprintf(&b, "%s held=%d\n", sw.Name(), sw.HeldOutputs())
	}
	for h, ifc := range f.Hosts {
		line = appendCounters(append(line[:0], ifc.Name()...), ifc.Counters())
		b.Write(line)
		fmt.Fprintf(&b, "%s sent=%d errs=%d delivered=%d bytes=%d\n",
			ifc.Name(), tb.Sent[h], tb.SendErrs[h], tb.Delivered[h], tb.Bytes[h])
	}
	for _, c := range f.Cables {
		for _, l := range []interface {
			Name() string
			Stats() (uint64, uint64)
			SeveredChars() uint64
		}{c.LeftToRight, c.RightToLeft} {
			chars, bursts := l.Stats()
			fmt.Fprintf(&b, "link %s chars=%d bursts=%d severed=%d\n", l.Name(), chars, bursts, l.SeveredChars())
		}
	}
	if tb.Cfg.Record {
		for h := range tb.rings {
			for _, rec := range tb.rings[h].Records() {
				fmt.Fprintf(&b, "flow %s %v pkts=%d bytes=%d %d..%d cause=%v\n",
					rec.Tap, rec.Key, rec.Packets, rec.Bytes, rec.First, rec.Last, rec.Cause)
			}
			fmt.Fprintf(&b, "ring %d exported=%d dropped=%d\n", h, tb.rings[h].Exported(), tb.rings[h].Dropped())
		}
		for h := range tb.logs {
			for _, e := range tb.logs[h] {
				fmt.Fprintf(&b, "ev h%04d at=%d src=%d n=%d\n", h, e.at, e.src, e.n)
			}
		}
	}
	return b.String()
}
