package campaign

import (
	"runtime"
	"testing"

	"netfi/internal/sim"
	"netfi/internal/topo"
)

// memTopo is the guard's fabric: a 16-switch Clos (14 leaves, 2 spines) of
// 128 hosts, so most routes cross a spine and every host has 127 peers.
var memTopo = topo.Config{Switches: 16, Hosts: 128, Seed: 42}

// memGap spaces each host's sends so the two spines carry the flood
// without queueing up: with 4.5 hosts per uplink the default 5 us gap
// overloads them, and transmit queues then grow with the run's length
// whatever the routing does.
const memGap = 20 * sim.Microsecond

// floodRunMallocs builds a flood of packets per host on memTopo and returns
// the heap objects allocated while it runs to quiescence, construction
// excluded.
func floodRunMallocs(t *testing.T, shards, packets int) uint64 {
	t.Helper()
	cfg := memTopo
	cfg.Shards = shards
	tb, err := NewFabricTestbed(FabricConfig{Topo: cfg, Packets: packets, Gap: memGap})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drained := tb.Run()
	runtime.ReadMemStats(&m1)
	if _, delivered, _ := tb.Totals(); !drained || delivered != uint64(cfg.Hosts*packets) {
		t.Fatalf("shards=%d packets=%d: drained=%v, delivered %d of %d", shards, packets, drained, delivered, cfg.Hosts*packets)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestFabricMemoryBounded guards the fabric's footprint: hosts compute each
// packet's source route from the topology and store none, so what a flood
// allocates while it runs does not grow with the traffic it carries, and a
// warmed host's Send allocates nothing, even toward a destination it has
// never sent to.
func TestFabricMemoryBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	t.Run("flood", func(t *testing.T) {
		// Queues, stream buffers and pools grow to the fabric's working
		// set early in a run. Four times the packets may add only new
		// high-water marks of those and the runtime's own wait records,
		// a few hundred objects. Storing each resolved route would add
		// at least one per new (host, destination) pair: over 3,500
		// objects here.
		const slack = 512
		floodRunMallocs(t, 1, 8) // warm the process-wide burst depot
		for _, shards := range []int{1, 2} {
			few, many := floodRunMallocs(t, shards, 8), floodRunMallocs(t, shards, 32)
			t.Logf("shards=%d: %d run-phase allocations at 8 packets per host, %d at 32", shards, few, many)
			if many > few+slack {
				t.Errorf("shards=%d: a flood of 32 packets per host allocates %d objects while it runs, 8 packets %d: memory grows with traffic",
					shards, many, few)
			}
		}
	})

	t.Run("send", func(t *testing.T) {
		tb, err := NewFabricTestbed(FabricConfig{Topo: memTopo, Packets: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		tb.Run()
		// Warm host 0's queue and buffers with a backlog deeper than the
		// measured run, all toward one peer on another leaf, then drain.
		const runs = 100
		h, payload := tb.F.Hosts[0], make([]byte, 64)
		for i := 0; i <= runs; i++ {
			if err := h.Send(topo.HostMAC(memTopo.Hosts-1), payload); err != nil {
				t.Fatal(err)
			}
		}
		tb.F.Run(tb.F.Group.Now() + sim.Time(sim.Millisecond))
		// Each measured Send goes to a peer host 0 has not sent to yet.
		dst := 1
		send := func() {
			if err := h.Send(topo.HostMAC(dst), payload); err != nil {
				t.Fatal(err)
			}
			dst++
		}
		if avg := testing.AllocsPerRun(runs, send); avg != 0 {
			t.Errorf("Send from a warmed fabric host allocates %.2f objects, want 0", avg)
		}
		before := tb.Delivered[1]
		if !tb.F.Run(tb.F.Group.Now() + sim.Time(10*sim.Millisecond)) {
			t.Fatal("fabric did not drain")
		}
		if tb.Delivered[1] != before+1 {
			t.Errorf("host 1 received %d packets after the measured sends, want %d", tb.Delivered[1], before+1)
		}
	})
}
