// Package topo instantiates multi-stage Myrinet fabrics — leaf-spine Clos
// topologies with hundreds of switches and thousands of hosts — and shards
// one simulation across per-core event kernels.
//
// Everything about a fabric is a pure function of its Config: switch and
// host placement, port mapping, source routes, and the shard partition all
// derive deterministically from the parameters and the seed, so two
// processes building the same Config get byte-identical fabrics with no
// mapping protocol traffic (the MCP is disabled; routes come from the
// resolver).
//
// Sharding: the switch graph and the hosts are partitioned into N shards,
// each owning a private sim.Kernel. Every cable is *channelized*: its
// deliveries become externally-ordered events stamped with the link's rank
// and per-link sequence, so every kernel fires same-time deliveries in an
// order that is a pure function of the traffic rather than the partition
// (see sim.Kernel.AtExt). With more than one shard, cross-shard cables and
// every switch-to-switch trunk buffer deliveries in the sender shard's
// outbox and inject them at barriers (phy.ExchangeSet), so each switch hop
// waits for the next window; host cables on one shard, and every cable of
// a one-shard fabric, schedule the identical event immediately
// (phy.DirectEnd). The same fabric run with 1, 2, or N shards is therefore
// byte-identical, which the campaign equivalence gate pins down.
//
// Lookahead: Build hands the ShardGroup the latency of the shortest
// buffered cable direction — one character's serialization plus that
// cable's propagation delay. Only a buffered delivery can reach a shard
// from another, or from its own shard across a barrier (host-cable chains
// on one shard need none: DirectEnd schedules them synchronously), so every
// window safely runs each shard one lookahead past the global minimum
// next-event time. A sharded Clos buffers every trunk, so its lookahead is
// one trunk latency unless a host cable crosses shards.
package topo

import (
	"fmt"

	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/sim"
)

// Config parameterizes a fabric. The zero value is not usable; Switches and
// Hosts must be positive.
type Config struct {
	// Switches is the total switch count. Switches/8 (at least one, when
	// the count allows two leaves) become spines; the rest are leaves.
	// Small fabrics that cannot form a two-stage Clos fall back to a
	// full mesh of host-bearing switches.
	Switches int
	// Hosts is the total host-interface count, distributed contiguously
	// across the host-bearing switches.
	Hosts int
	// Shards is the number of event kernels to partition across; it is
	// clamped to [1, Switches+Hosts]. Zero selects 1.
	Shards int
	// Seed drives every deterministic choice (spine selection per
	// leaf pair, kernel seeding).
	Seed int64
	// HostPropDelay is the host-to-leaf cable propagation delay; zero
	// selects 25 ns (an in-rack cable). It bounds the lookahead window
	// only where a host cable crosses shards.
	HostPropDelay sim.Duration
	// TrunkPropDelay is the switch-to-switch cable propagation delay;
	// zero selects 100 ns (a cross-rack trunk). Every trunk of a sharded
	// fabric is buffered, so it bounds the lookahead window: longer trunks
	// mean fewer barriers. Neither delay may exceed one second.
	TrunkPropDelay sim.Duration
	// MaxPacket is passed through to every interface; zero selects the
	// interface default, and a negative value is an error.
	MaxPacket int
}

func (c *Config) fillDefaults() error {
	if c.Switches <= 0 {
		return fmt.Errorf("topo: Switches must be positive (got %d)", c.Switches)
	}
	if c.Hosts <= 0 {
		return fmt.Errorf("topo: Hosts must be positive (got %d)", c.Hosts)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if max := c.Switches + c.Hosts; c.Shards > max {
		c.Shards = max
	}
	if c.HostPropDelay <= 0 {
		c.HostPropDelay = 25 * sim.Nanosecond
	}
	if c.TrunkPropDelay <= 0 {
		c.TrunkPropDelay = 100 * sim.Nanosecond
	}
	if c.MaxPacket < 0 {
		return fmt.Errorf("topo: MaxPacket must not be negative (got %d)", c.MaxPacket)
	}
	if c.HostPropDelay > maxPropDelay || c.TrunkPropDelay > maxPropDelay {
		return fmt.Errorf("topo: propagation delays must not exceed %v (got host %v, trunk %v)",
			maxPropDelay, c.HostPropDelay, c.TrunkPropDelay)
	}
	return nil
}

// maxPropDelay bounds a cable's propagation delay (about 200,000 km of
// fibre), so the lookahead and every window horizon stay far from
// overflowing sim.Duration.
const maxPropDelay = sim.Second

// Fabric is a built multi-switch Myrinet with its shard coordinator.
type Fabric struct {
	Config Config

	Kernels []*sim.Kernel
	Group   *sim.ShardGroup

	// Switches: in a Clos fabric indexes [0, leaves) are leaf switches
	// and [leaves, leaves+spines) are spines; in a mesh every switch
	// bears hosts.
	Switches []*myrinet.Switch
	Hosts    []*myrinet.Interface
	Cables   []*phy.Cable // rank order: host cables, then trunks

	// Topology shape.
	Mesh         bool
	Spines       int
	Leaves       int
	HostsPerLeaf int

	shardOfSwitch []int
	shardOfHost   []int
	// lookahead is the shortest buffered cable direction's latency, zero
	// until addCable buffers one; a one-shard fabric, which buffers
	// nothing, takes one character plus the shorter propagation delay.
	lookahead sim.Duration

	exch *phy.ExchangeSet
}

// hostMACPrefix distinguishes fabric host addresses; the low two bytes are
// the host index.
var hostMACPrefix = [4]byte{0x06, 0x4d, 0x59, 0x52} // locally administered, "MYR"

// HostMAC returns the deterministic address of fabric host i.
func HostMAC(i int) myrinet.MAC {
	return myrinet.MAC{hostMACPrefix[0], hostMACPrefix[1], hostMACPrefix[2], hostMACPrefix[3], byte(i >> 8), byte(i)}
}

// HostIndex inverts HostMAC; ok is false for foreign addresses.
func HostIndex(m myrinet.MAC) (int, bool) {
	if [4]byte{m[0], m[1], m[2], m[3]} != hostMACPrefix {
		return 0, false
	}
	return int(m[4])<<8 | int(m[5]), true
}

// mix hashes its arguments through splitmix64; the fabric's only "random"
// choices (spine selection, kernel seeds) go through it so they depend on
// nothing but the seed and the topology coordinates.
func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h = sim.SplitMix64(h ^ v)
	}
	return h
}

// Build constructs the fabric: switches and interfaces on their shard
// kernels, every cable channelized through the shard outboxes, route
// resolvers installed, and the ShardGroup wired with the exchange hook.
func Build(cfg Config) (*Fabric, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	f := &Fabric{Config: cfg}

	// Shape: two-stage Clos when at least two leaves remain after
	// carving out spines; otherwise a full mesh of host-bearing
	// switches (covers the paper-scale 1- and 2-switch labs).
	f.Spines = cfg.Switches / 8
	if f.Spines < 1 {
		f.Spines = 1
	}
	f.Leaves = cfg.Switches - f.Spines
	if f.Leaves < 2 {
		f.Mesh = true
		f.Spines = 0
		f.Leaves = cfg.Switches
	}
	f.HostsPerLeaf = (cfg.Hosts + f.Leaves - 1) / f.Leaves

	// Port budgets: route bytes address ports through a 7-bit field.
	leafPorts := f.HostsPerLeaf + f.Spines
	if f.Mesh {
		leafPorts = f.HostsPerLeaf + cfg.Switches
	}
	const maxPorts = int(myrinet.RoutePortMask) + 1
	if leafPorts > maxPorts {
		return nil, fmt.Errorf("topo: %d ports per leaf exceeds the %d-port route byte (reduce hosts per switch)", leafPorts, maxPorts)
	}
	if f.Leaves > maxPorts {
		return nil, fmt.Errorf("topo: %d leaves exceed the %d-port spine radix", f.Leaves, maxPorts)
	}

	f.partition()

	// Kernels. The per-shard seeds only matter if a model consumes
	// kernel randomness, which fabric models never do (mapping is
	// disabled, jitter off); seeding them distinctly is belt and braces
	// for misuse, not a determinism requirement.
	f.Kernels = make([]*sim.Kernel, cfg.Shards)
	for i := range f.Kernels {
		f.Kernels[i] = sim.NewKernel(int64(mix(uint64(cfg.Seed), uint64(i))))
	}
	f.exch = phy.NewExchangeSet(cfg.Shards)

	// Switches.
	f.Switches = make([]*myrinet.Switch, cfg.Switches)
	for i := range f.Switches {
		var name string
		var ports int
		switch {
		case f.Mesh:
			name, ports = fmt.Sprintf("sw%03d", i), leafPorts
		case i < f.Leaves:
			name, ports = fmt.Sprintf("leaf%03d", i), leafPorts
		default:
			name, ports = fmt.Sprintf("spine%02d", i-f.Leaves), f.Leaves
		}
		f.Switches[i] = myrinet.NewSwitch(f.Kernels[f.shardOfSwitch[i]], name, ports)
	}

	// Hosts.
	f.Hosts = make([]*myrinet.Interface, cfg.Hosts)
	for h := range f.Hosts {
		ifc := myrinet.NewInterface(f.Kernels[f.shardOfHost[h]], myrinet.InterfaceConfig{
			Name:      fmt.Sprintf("h%04d", h),
			MAC:       HostMAC(h),
			ID:        myrinet.NodeID(h + 1),
			MaxPacket: cfg.MaxPacket,
		})
		ifc.SetRouteResolver(f.resolverFor(h))
		f.Hosts[h] = ifc
	}

	// Cables, in rank order: host h ascending, then trunks. Each link's
	// rank is 2*cable (left-to-right) or 2*cable+1, so the exchange sort
	// key is unique and topology-determined.
	hostLink := phy.LinkConfig{CharPeriod: myrinet.CharPeriod, PropDelay: cfg.HostPropDelay}
	trunkLink := phy.LinkConfig{CharPeriod: myrinet.CharPeriod, PropDelay: cfg.TrunkPropDelay}
	for h := range f.Hosts {
		sw, port := f.hostAttach(h)
		lc := hostLink
		lc.Name = fmt.Sprintf("%s<->%s.p%d", f.Hosts[h].Name(), f.Switches[sw].Name(), port)
		f.addCable(lc, false, f.shardOfHost[h], f.shardOfSwitch[sw], f.Hosts[h], myrinet.Port(f.Switches[sw], port))
	}
	if f.Mesh {
		for a := 0; a < cfg.Switches; a++ {
			for b := a + 1; b < cfg.Switches; b++ {
				lc := trunkLink
				lc.Name = fmt.Sprintf("%s.p%d<->%s.p%d", f.Switches[a].Name(), f.HostsPerLeaf+b, f.Switches[b].Name(), f.HostsPerLeaf+a)
				f.addCable(lc, true, f.shardOfSwitch[a], f.shardOfSwitch[b],
					myrinet.Port(f.Switches[a], f.HostsPerLeaf+b), myrinet.Port(f.Switches[b], f.HostsPerLeaf+a))
			}
		}
	} else {
		for l := 0; l < f.Leaves; l++ {
			for s := 0; s < f.Spines; s++ {
				spine := f.Switches[f.Leaves+s]
				lc := trunkLink
				lc.Name = fmt.Sprintf("%s.p%d<->%s.p%d", f.Switches[l].Name(), f.HostsPerLeaf+s, spine.Name(), l)
				f.addCable(lc, true, f.shardOfSwitch[l], f.shardOfSwitch[f.Leaves+s],
					myrinet.Port(f.Switches[l], f.HostsPerLeaf+s), myrinet.Port(spine, l))
			}
		}
	}

	// A one-shard fabric buffers nothing and its group runs each window to
	// the limit; its lookahead is the shortest cable of either kind.
	if f.lookahead == 0 {
		f.lookahead = myrinet.CharPeriod + min(cfg.HostPropDelay, cfg.TrunkPropDelay)
	}

	f.Group = sim.NewShardGroup(f.Kernels, f.lookahead)
	f.Group.SetExchange(f.exch.ExchangeAfter)
	return f, nil
}

// partition assigns switches and hosts to shards. Units are switches AND
// hosts, so a fabric can shard finer than its switch count (the 2-switch
// equivalence gate runs 4 shards). With N <= switches, each tier is dealt
// round-robin — leaf l to shard l mod N, spine s to s mod N, mesh switch i
// to i mod N — so every shard holds a like slice of each tier and carries
// like work in every window (every trunk hop waits for a barrier, so a
// flood's hops run in phase, tier by tier); each host follows its switch,
// keeping host<->leaf cables intra-shard and direct.
// With more shards than switches, every switch gets its own shard and
// hosts spread over the remainder.
func (f *Fabric) partition() {
	s, h, n := f.Config.Switches, f.Config.Hosts, f.Config.Shards
	f.shardOfSwitch = make([]int, s)
	f.shardOfHost = make([]int, h)
	if n <= s {
		for i := range f.shardOfSwitch {
			if i < f.Leaves {
				f.shardOfSwitch[i] = i % n
			} else {
				f.shardOfSwitch[i] = (i - f.Leaves) % n
			}
		}
		for i := range f.shardOfHost {
			sw, _ := f.hostAttach(i)
			f.shardOfHost[i] = f.shardOfSwitch[sw]
		}
		return
	}
	for i := range f.shardOfSwitch {
		f.shardOfSwitch[i] = i
	}
	for i := range f.shardOfHost {
		f.shardOfHost[i] = s + i*(n-s)/h
	}
}

// hostAttach returns the switch index and port where host h attaches.
func (f *Fabric) hostAttach(h int) (sw, port int) {
	return h / f.HostsPerLeaf, h % f.HostsPerLeaf
}

// addCable builds one channelized cable: each direction's link lives on the
// sender's kernel. A direction is buffered — it goes through the sender
// shard's outbox for barrier exchange and bounds the lookahead — when it
// crosses shards, or when it is a switch-to-switch trunk of
// a sharded fabric even though both ends share a shard. Only host cables on
// one shard, and every cable of a one-shard fabric, schedule the identical
// externally-ordered event directly into the shared kernel. Buffering the
// same-shard trunks makes every switch hop wait for the next barrier, so a
// packet's leaf->spine->leaf chain spreads over windows instead of piling
// one window's work onto the shard that holds the chain.
func (f *Fabric) addCable(cfg phy.LinkConfig, trunk bool, shardA, shardB int, a, b myrinet.Attachable) {
	cable := myrinet.ConnectCross(f.Kernels[shardA], f.Kernels[shardB], cfg, a, b)
	rank := uint32(2 * len(f.Cables))
	if shardA == shardB && (!trunk || f.Config.Shards == 1) {
		cable.LeftToRight.SetDeliverySink(phy.NewDirectEnd(f.Kernels[shardA], rank))
		cable.RightToLeft.SetDeliverySink(phy.NewDirectEnd(f.Kernels[shardA], rank+1))
	} else {
		cable.LeftToRight.SetDeliverySink(phy.NewChannelEnd(f.exch.Box(shardA), f.Kernels[shardB], rank))
		cable.RightToLeft.SetDeliverySink(phy.NewChannelEnd(f.exch.Box(shardB), f.Kernels[shardA], rank+1))
		if lat := cfg.CharPeriod + cfg.PropDelay; f.lookahead == 0 || lat < f.lookahead {
			f.lookahead = lat
		}
	}
	f.Cables = append(f.Cables, cable)
}

// Route returns the source route from host src to host dst, or false when
// either index is out of range. Same-leaf traffic takes one hop; cross-leaf
// traffic transits a spine chosen deterministically per (srcLeaf, dstLeaf)
// from the seed, so both the route and the load spread are reproducible.
// The route is freshly allocated; hosts compute theirs with appendRoute
// into their own buffer instead.
func (f *Fabric) Route(src, dst int) ([]byte, bool) { return f.appendRoute(nil, src, dst) }

// appendRoute appends Route(src, dst) to buf and returns the extended
// slice; on false it returns buf unchanged.
func (f *Fabric) appendRoute(buf []byte, src, dst int) ([]byte, bool) {
	if src < 0 || src >= f.Config.Hosts || dst < 0 || dst >= f.Config.Hosts || src == dst {
		return buf, false
	}
	srcSw, _ := f.hostAttach(src)
	dstSw, dstPort := f.hostAttach(dst)
	switch {
	case srcSw == dstSw:
		return myrinet.AppendRoute(buf, dstPort), true
	case f.Mesh:
		return myrinet.AppendRoute(buf, f.HostsPerLeaf+dstSw, dstPort), true
	}
	spine := int(mix(uint64(f.Config.Seed), uint64(srcSw), uint64(dstSw)) % uint64(f.Spines))
	return myrinet.AppendRoute(buf, f.HostsPerLeaf+spine, dstSw, dstPort), true
}

// resolverFor builds host h's route resolver: the interface computes every
// packet's route from the topology into its own buffer and stores none, so
// a 1024-host fabric never holds a million route entries however much
// traffic it carries.
func (f *Fabric) resolverFor(h int) func([]byte, myrinet.MAC) ([]byte, bool) {
	return func(buf []byte, dst myrinet.MAC) ([]byte, bool) {
		d, ok := HostIndex(dst)
		if !ok {
			return buf, false
		}
		return f.appendRoute(buf, h, d)
	}
}

// HostKernel returns the kernel owning host h; workload events for h must
// be scheduled here.
func (f *Fabric) HostKernel(h int) *sim.Kernel { return f.Kernels[f.shardOfHost[h]] }

// Run advances the fabric to limit (see sim.ShardGroup.Run); it reports
// whether the fabric drained.
func (f *Fabric) Run(limit sim.Time) bool { return f.Group.Run(limit) }

// Close releases the shard workers. The fabric must not run afterwards.
func (f *Fabric) Close() { f.Group.Close() }

// TotalChars sums the characters carried by every link in the fabric — the
// "simulated symbols" of the headline symbols/sec metric.
func (f *Fabric) TotalChars() uint64 {
	var total uint64
	for _, c := range f.Cables {
		for _, l := range []*phy.Link{c.LeftToRight, c.RightToLeft} {
			chars, _ := l.Stats()
			total += chars
		}
	}
	return total
}
