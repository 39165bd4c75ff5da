package topo

import (
	"slices"
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

func build(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build(%+v): %v", cfg, err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestHostMACRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 255, 256, 1023, 65535} {
		m := HostMAC(i)
		j, ok := HostIndex(m)
		if !ok || j != i {
			t.Fatalf("HostIndex(HostMAC(%d)) = %d, %v", i, j, ok)
		}
	}
	if _, ok := HostIndex(myrinet.MAC{1, 2, 3, 4, 5, 6}); ok {
		t.Fatal("foreign MAC resolved to a host index")
	}
}

func TestMeshShape(t *testing.T) {
	// 2 switches cannot form a Clos; they fall back to a full mesh.
	f := build(t, Config{Switches: 2, Hosts: 4, Seed: 1})
	if !f.Mesh || f.Leaves != 2 || f.Spines != 0 {
		t.Fatalf("shape: mesh=%v leaves=%d spines=%d", f.Mesh, f.Leaves, f.Spines)
	}
	if f.HostsPerLeaf != 2 {
		t.Fatalf("HostsPerLeaf = %d, want 2", f.HostsPerLeaf)
	}
	// host cables (4) + one trunk per switch pair (1)
	if len(f.Cables) != 5 {
		t.Fatalf("%d cables, want 5", len(f.Cables))
	}
}

func TestClosShape(t *testing.T) {
	f := build(t, Config{Switches: 128, Hosts: 1024, Seed: 1})
	if f.Mesh {
		t.Fatal("128 switches built a mesh")
	}
	if f.Spines != 16 || f.Leaves != 112 {
		t.Fatalf("spines=%d leaves=%d, want 16/112", f.Spines, f.Leaves)
	}
	if f.HostsPerLeaf != 10 {
		t.Fatalf("HostsPerLeaf = %d, want 10", f.HostsPerLeaf)
	}
	// Per-leaf ports: 10 hosts + 16 uplinks; spine radix: 112.
	if p := f.Switches[0].Ports(); p != 26 {
		t.Fatalf("leaf ports = %d, want 26", p)
	}
	if p := f.Switches[f.Leaves].Ports(); p != 112 {
		t.Fatalf("spine ports = %d, want 112", p)
	}
	// host cables + leaves*spines trunks
	if want := 1024 + 112*16; len(f.Cables) != want {
		t.Fatalf("%d cables, want %d", len(f.Cables), want)
	}
}

// TestRoutesWalk walks every generated route through the port map and
// checks it terminates at the destination host's port.
func TestRoutesWalk(t *testing.T) {
	for _, cfg := range []Config{
		{Switches: 2, Hosts: 4, Seed: 3},
		{Switches: 16, Hosts: 64, Seed: 3},
		{Switches: 32, Hosts: 200, Seed: 9},
	} {
		f := build(t, cfg)
		for src := 0; src < cfg.Hosts; src++ {
			for dst := 0; dst < cfg.Hosts; dst++ {
				if src == dst {
					continue
				}
				route, ok := f.Route(src, dst)
				if !ok {
					t.Fatalf("no route %d -> %d", src, dst)
				}
				if route[len(route)-1] != myrinet.RouteFinal {
					t.Fatalf("route %d -> %d does not end in RouteFinal: %v", src, dst, route)
				}
				// Walk: start at src's switch. Every hop but the last
				// crosses to another switch; the last exits to the
				// destination's host port.
				sw, _ := f.hostAttach(src)
				for i, b := range route[:len(route)-1] {
					if b&myrinet.RouteSwitchFlag == 0 {
						t.Fatalf("route %d -> %d has a non-switch hop %#x before the final byte", src, dst, b)
					}
					port := int(b & myrinet.RoutePortMask)
					if port >= f.Switches[sw].Ports() {
						t.Fatalf("route %d -> %d uses port %d beyond switch %s's %d ports",
							src, dst, port, f.Switches[sw].Name(), f.Switches[sw].Ports())
					}
					if i == len(route)-2 {
						break // final switch hop: exits to the host port
					}
					sw = f.nextSwitch(t, sw, port)
				}
				wantSw, wantPort := f.hostAttach(dst)
				if sw != wantSw {
					t.Fatalf("route %d -> %d lands on switch %d, want %d", src, dst, sw, wantSw)
				}
				// The hop before the final byte must select dst's port.
				lastHop := int(route[len(route)-2] & myrinet.RoutePortMask)
				if lastHop != wantPort {
					t.Fatalf("route %d -> %d exits port %d, want %d", src, dst, lastHop, wantPort)
				}
			}
		}
	}
}

// nextSwitch resolves where a switch port's cable leads (test-only walk of
// the topology's port map).
func (f *Fabric) nextSwitch(t *testing.T, sw, port int) int {
	t.Helper()
	if f.Mesh {
		if port < f.HostsPerLeaf {
			t.Fatalf("switch %d port %d is a host port mid-route", sw, port)
		}
		return port - f.HostsPerLeaf
	}
	if sw < f.Leaves {
		if port < f.HostsPerLeaf {
			t.Fatalf("leaf %d port %d is a host port mid-route", sw, port)
		}
		return f.Leaves + (port - f.HostsPerLeaf) // uplink to spine
	}
	return port // spine port l leads to leaf l
}

func TestRouteDeterminism(t *testing.T) {
	a := build(t, Config{Switches: 16, Hosts: 64, Seed: 5})
	b := build(t, Config{Switches: 16, Hosts: 64, Seed: 5, Shards: 4})
	for src := 0; src < 64; src += 7 {
		for dst := 0; dst < 64; dst += 5 {
			if src == dst {
				continue
			}
			ra, _ := a.Route(src, dst)
			rb, _ := b.Route(src, dst)
			if string(ra) != string(rb) {
				t.Fatalf("route %d -> %d differs across shard counts: %v vs %v", src, dst, ra, rb)
			}
		}
	}
}

func TestPartition(t *testing.T) {
	// N <= switches: every shard gets switches, hosts follow their leaf.
	f := build(t, Config{Switches: 16, Hosts: 64, Shards: 4, Seed: 1})
	used := map[int]bool{}
	for i := 0; i < 16; i++ {
		s := f.shardOfSwitch[i]
		if s < 0 || s >= 4 {
			t.Fatalf("switch %d on shard %d", i, s)
		}
		used[s] = true
	}
	if len(used) != 4 {
		t.Fatalf("only %d shards used, want 4", len(used))
	}
	for h := 0; h < 64; h++ {
		sw, _ := f.hostAttach(h)
		if f.shardOfHost[h] != f.shardOfSwitch[sw] {
			t.Fatalf("host %d on shard %d, its leaf on %d", h, f.shardOfHost[h], f.shardOfSwitch[sw])
		}
	}

	// N > switches: every switch its own shard, hosts spread the rest.
	g := build(t, Config{Switches: 2, Hosts: 4, Shards: 4, Seed: 1})
	if len(g.Kernels) != 4 {
		t.Fatalf("%d kernels, want 4", len(g.Kernels))
	}
	hostShards := map[int]bool{}
	for h := 0; h < 4; h++ {
		s := g.shardOfHost[h]
		if s < 2 {
			t.Fatalf("host %d landed on a switch shard %d", h, s)
		}
		hostShards[s] = true
	}
	if len(hostShards) != 2 {
		t.Fatalf("hosts use %d shards, want 2", len(hostShards))
	}
}

// With N <= switches the partition deals each tier round-robin, so every
// shard holds a like slice of leaves, spines and host-bearing leaves. A
// host follows its leaf, so per-shard host counts can differ by up to one
// leaf's worth of hosts.
func TestPartitionDealsTiers(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		cross int // trunks whose ends sit on different shards; -1 skips
	}{
		{Config{Switches: 128, Hosts: 1024, Shards: 2, Seed: 1}, 896},
		{Config{Switches: 128, Hosts: 1024, Shards: 4, Seed: 1}, -1},
		{Config{Switches: 128, Hosts: 1024, Shards: 1, Seed: 1}, -1},
		{Config{Switches: 2, Hosts: 5, Shards: 2, Seed: 1}, -1},
	} {
		f := build(t, tc.cfg)
		n := tc.cfg.Shards
		leaves := make([]int, n)
		bearing := make([]int, n) // leaves with at least one host
		spines := make([]int, n)
		hosts := make([]int, n)
		for l := 0; l < f.Leaves; l++ {
			leaves[f.shardOfSwitch[l]]++
		}
		for s := 0; s < f.Spines; s++ {
			spines[f.shardOfSwitch[f.Leaves+s]]++
		}
		lastLeaf := -1
		for h := 0; h < tc.cfg.Hosts; h++ {
			sw, _ := f.hostAttach(h)
			if f.shardOfHost[h] != f.shardOfSwitch[sw] {
				t.Fatalf("%+v: host %d on shard %d, its leaf on %d", tc.cfg, h, f.shardOfHost[h], f.shardOfSwitch[sw])
			}
			hosts[f.shardOfHost[h]]++
			if sw != lastLeaf {
				bearing[f.shardOfSwitch[sw]]++
				lastLeaf = sw
			}
		}
		for _, c := range []struct {
			name   string
			counts []int
			slack  int
		}{
			{"leaves", leaves, 1},
			{"spines", spines, 1},
			{"host-bearing leaves", bearing, 1},
			{"hosts", hosts, f.HostsPerLeaf},
		} {
			if spread := slices.Max(c.counts) - slices.Min(c.counts); spread > c.slack {
				t.Errorf("%+v: %s per shard %v spread %d, want <= %d", tc.cfg, c.name, c.counts, spread, c.slack)
			}
		}
		// A sharded fabric buffers every trunk hop, same-shard ones too,
		// and keeps each host cable on its leaf's shard, so the shortest
		// buffered cable, the lookahead, is one trunk latency.
		if trunk := myrinet.CharPeriod + f.Config.TrunkPropDelay; n > 1 && f.lookahead != trunk {
			t.Errorf("%+v: lookahead %v, want one trunk latency %v", tc.cfg, f.lookahead, trunk)
		}
		if tc.cross < 0 {
			continue
		}
		cross := 0
		for l := 0; l < f.Leaves; l++ {
			for s := 0; s < f.Spines; s++ {
				if f.shardOfSwitch[l] != f.shardOfSwitch[f.Leaves+s] {
					cross++
				}
			}
		}
		if cross != tc.cross {
			t.Errorf("%+v: %d trunks cross shards, want %d", tc.cfg, cross, tc.cross)
		}
	}
}

func TestShardClamp(t *testing.T) {
	f := build(t, Config{Switches: 2, Hosts: 4, Shards: 100, Seed: 1})
	if len(f.Kernels) != 6 {
		t.Fatalf("%d kernels, want clamp to switches+hosts = 6", len(f.Kernels))
	}
}

// The lookahead is the shortest buffered cable direction. On a 2-switch
// mesh at 2 shards each host shares its switch's shard, so the trunk is the
// only buffered cable; at 6 shards every host has a shard of its own and
// its cable crosses. One shard buffers nothing and reports the shorter of
// the two cables.
func TestLookahead(t *testing.T) {
	for _, tc := range []struct {
		shards int
		prop   sim.Duration
	}{{2, 80 * sim.Nanosecond}, {6, 30 * sim.Nanosecond}, {1, 30 * sim.Nanosecond}} {
		f := build(t, Config{
			Switches: 2, Hosts: 4, Shards: tc.shards, Seed: 1,
			HostPropDelay: 30 * sim.Nanosecond, TrunkPropDelay: 80 * sim.Nanosecond,
		})
		if want := myrinet.CharPeriod + tc.prop; f.lookahead != want {
			t.Errorf("%d shards: lookahead = %v, want %v", tc.shards, f.lookahead, want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	for _, cfg := range []Config{
		{Switches: 0, Hosts: 4},
		{Switches: 2, Hosts: 0},
		{Switches: 2, Hosts: 300}, // 150 hosts/switch + 2 mesh ports > 128
		{Switches: 2, Hosts: 4, MaxPacket: -1},
		{Switches: 9, Hosts: 8, Shards: 2, TrunkPropDelay: 2 * sim.Second}, // past the one-second bound
	} {
		if _, err := Build(cfg); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", cfg)
		}
	}
}
