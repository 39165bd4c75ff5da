package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/myrinet"
	"netfi/internal/netmap"
	"netfi/internal/sim"
)

// Sec433Result reproduces the §4.3.3 physical-address corruption
// experiments. All four use the injector's ability to rewrite the 48-bit
// Ethernet-style addresses in flight; the CRC-recompute trigger decides
// whether the corruption survives the interface's CRC check.
type Sec433Result struct {
	// Destination corrupted to another node's address, CRC left stale:
	// dropped "as a result of the incorrect CRC-8", received by neither.
	DestDroppedByCRC    bool
	DestNeitherReceived bool

	// The node's own (inbound destination) address corrupted: it drops
	// everything as misaddressed yet "still responds correctly to
	// mapping packets and the routing information remained unchanged".
	SelfUnreachable   bool
	SelfMappingWorks  bool
	SelfRoutingStable bool

	// Address corrupted to match the controller's: the routing table is
	// badly corrupted; every resolution attempt fails differently.
	CtrlMapsInconsistent bool
	CtrlMapsVary         bool
	CtrlFigBefore        string
	CtrlFigAfter         string

	// Address corrupted to a nonexistent one: packets in transit are
	// dropped and the routing table is updated with the new information,
	// "analogous to removing a computer and replacing it with another".
	GhostInMap        bool
	RealGone          bool
	GhostTrafficDrops bool
}

// macWindow renders the 4-entry compare window covering node i's MAC tail
// (bytes 3..5) followed by an expected next byte on the wire.
func macWindow(i int, next byte) string {
	m := NodeMAC(i)
	return fmt.Sprintf("COMPARE %02X %02X %02X %02X", m[3], m[4], m[5], next)
}

// macLastByteReplace renders the corrupt vector replacing the MAC's last
// byte (window position 2) with v.
func macLastByteReplace(v byte) string {
	return fmt.Sprintf("CORRUPT REPLACE -- -- %02X --", v)
}

// RunSec433 executes the four experiments. Like §4.3.2, each runs on its own
// testbed and seed and fills a disjoint set of result fields, so they fan out
// over the worker pool and merge.
func RunSec433(opts SectionOptions) Sec433Result {
	parts := RunTrials(4, opts.Workers, func(i int) Sec433Result {
		var r Sec433Result
		switch i {
		case 0:
			return runDestCorruption(opts.Seed, r)
		case 1:
			return runSelfAddressCorruption(opts.Seed+10, r)
		case 2:
			return runControllerDuplicate(opts.Seed+20, r)
		default:
			return runGhostAddress(opts.Seed+30, r)
		}
	})
	res := parts[0] // destination-corruption fields
	res.SelfUnreachable = parts[1].SelfUnreachable
	res.SelfMappingWorks = parts[1].SelfMappingWorks
	res.SelfRoutingStable = parts[1].SelfRoutingStable
	res.CtrlMapsInconsistent = parts[2].CtrlMapsInconsistent
	res.CtrlMapsVary = parts[2].CtrlMapsVary
	res.CtrlFigBefore = parts[2].CtrlFigBefore
	res.CtrlFigAfter = parts[2].CtrlFigAfter
	res.GhostInMap = parts[3].GhostInMap
	res.RealGone = parts[3].RealGone
	res.GhostTrafficDrops = parts[3].GhostTrafficDrops
	return res
}

// runDestCorruption rewrites the destination address of a packet bound for
// node1 into node2's, leaving the CRC stale.
func runDestCorruption(seed int64, res Sec433Result) Sec433Result {
	tb := NewTestbed(TestbedConfig{Seed: seed})
	tap := tb.TapNode()
	right := tb.Nodes[1]
	wrong := tb.Nodes[2]
	rRight := mustBind(right, loadDstPort, nil)
	rWrong := mustBind(wrong, loadDstPort, nil)

	// Outbound data to node1: destination MAC tail (..40 40 12) followed
	// by the source MAC's first byte. Replace the last address byte with
	// node2's; no CRC recompute, so the trailing CRC-8 goes stale.
	tb.mustConfigure(
		"DIR L",
		macWindow(1, NodeMAC(0)[0]), // dest MAC tail, then source MAC's first byte
		macLastByteReplace(NodeMAC(2)[5]),
		"MODE ONCE",
	)
	crcBefore := right.Interface().Counters().Drops[myrinet.DropCRC]
	tap.SendUDP(right.MAC(), 9000, 9001, []byte("misdelivered?"))
	tb.K.RunFor(5 * sim.Millisecond)

	res.DestDroppedByCRC = right.Interface().Counters().Drops[myrinet.DropCRC] == crcBefore+1
	res.DestNeitherReceived = rRight.Received() == 0 && rWrong.Received() == 0
	return res
}

// runSelfAddressCorruption rewrites the destination address of everything
// arriving at the tapped node (CRC recomputed, so only the address check
// fires): the node becomes unreachable for data yet keeps answering scouts.
func runSelfAddressCorruption(seed int64, res Sec433Result) Sec433Result {
	const mapPeriod = 200 * sim.Millisecond
	tb := NewTestbed(TestbedConfig{Seed: seed, Mapping: true, MapPeriod: mapPeriod})
	tap := tb.TapNode()
	src := tb.Nodes[1]
	r := mustBind(tap, loadDstPort, nil)
	answersBefore := tap.Interface().MCP().ScoutsAnswered()
	routesBefore := fmt.Sprint(src.Interface().Routes())

	// Inbound to the tapped node: its own MAC tail followed by the
	// source MAC's first byte identifies data packets addressed to it.
	tb.mustConfigure(
		"DIR R",
		macWindow(0, NodeMAC(1)[0]), // own MAC as destination, then source MAC
		macLastByteReplace(NodeMAC(1)[5]),
		"CRC ON",
		"MODE ON",
	)
	misBefore := tap.Interface().Counters().Drops[myrinet.DropMisaddressed]
	for i := 0; i < 5; i++ {
		src.SendUDP(tap.MAC(), 9000, 9001, []byte{byte(i)})
	}
	// Let a mapping round pass under corruption.
	tb.K.RunFor(mapPeriod + 50*sim.Millisecond)
	tb.ConfigureBothMode(false)

	res.SelfUnreachable = r.Received() == 0 &&
		tap.Interface().Counters().Drops[myrinet.DropMisaddressed] >= misBefore+5
	res.SelfMappingWorks = tap.Interface().MCP().ScoutsAnswered() > answersBefore &&
		tb.Nodes[2].Interface().MCP().LastSnapshot().Has(tap.MAC())
	res.SelfRoutingStable = fmt.Sprint(src.Interface().Routes()) == routesBefore
	return res
}

// runControllerDuplicate rewrites the tapped node's identity in its scout
// replies to the controller's own address: the mapper cannot build a
// consistent map, and each attempt fails differently (Fig. 11).
func runControllerDuplicate(seed int64, res Sec433Result) Sec433Result {
	const mapPeriod = 200 * sim.Millisecond
	tb := NewTestbed(TestbedConfig{Seed: seed, Mapping: true, MapPeriod: mapPeriod})
	mapper := tb.Nodes[len(tb.Nodes)-1].Interface().MCP()
	before := mapper.LastSnapshot()
	res.CtrlFigBefore = netmap.Render(before)

	// The tapped node's scout replies carry its MAC followed by the
	// probe sequence's high byte (zero). Rewrite the address tail to the
	// controller's, CRC recomputed so the reply still parses.
	tb.mustConfigure(
		"DIR L",
		macWindow(0, 0x00), // own MAC in a scout reply, then the sequence high byte
		macLastByteReplace(NodeMAC(len(tb.Nodes) - 1)[5]),
		"CRC ON",
		"MODE ON",
	)
	sizes := map[int]bool{}
	inconsistent := 0
	rounds := 6
	for i := 0; i < rounds; i++ {
		tb.K.RunFor(mapPeriod)
		if s := mapper.LastSnapshot(); s != nil && s.Inconsistent {
			inconsistent++
			sizes[s.NodeCount()] = true
		}
	}
	after := mapper.LastSnapshot()
	res.CtrlFigAfter = netmap.Render(after)
	res.CtrlMapsInconsistent = inconsistent >= rounds/2
	res.CtrlMapsVary = len(sizes) >= 2
	return res
}

// runGhostAddress rewrites the tapped node's identity in scout replies to a
// nonexistent address: the map gains the ghost, loses the real node, and
// traffic to the ghost is dropped by the (real) interface underneath.
func runGhostAddress(seed int64, res Sec433Result) Sec433Result {
	const mapPeriod = 200 * sim.Millisecond
	tb := NewTestbed(TestbedConfig{Seed: seed, Mapping: true, MapPeriod: mapPeriod})
	tap := tb.TapNode()
	src := tb.Nodes[1]
	ghost := NodeMAC(0)
	ghost[5] = 0x77

	tb.mustConfigure(
		"DIR L",
		macWindow(0, 0x00),
		macLastByteReplace(0x77),
		"CRC ON",
		"MODE ON",
	)
	tb.K.RunFor(mapPeriod + 50*sim.Millisecond)

	snap := tb.Nodes[2].Interface().MCP().LastSnapshot()
	res.GhostInMap = snap != nil && snap.Has(ghost)
	res.RealGone = snap != nil && !snap.Has(tap.MAC())
	// Traffic to the ghost reaches the real interface underneath, whose
	// address check drops it.
	misBefore := tap.Interface().Counters().Drops[myrinet.DropMisaddressed]
	src.SendUDP(ghost, 9000, 9001, []byte("to a ghost"))
	tb.K.RunFor(5 * sim.Millisecond)
	res.GhostTrafficDrops = tap.Interface().Counters().Drops[myrinet.DropMisaddressed] == misBefore+1
	return res
}

// FormatSec433 renders the result against the paper's observations.
func FormatSec433(r Sec433Result) string {
	check := func(b bool) string {
		if b {
			return "reproduced"
		}
		return "NOT reproduced"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "destination corrupted: dropped by CRC-8: %s; received by neither: %s\n",
		check(r.DestDroppedByCRC), check(r.DestNeitherReceived))
	fmt.Fprintf(&b, "own address corrupted: unreachable for data: %s; mapping still answered: %s; routing unchanged: %s\n",
		check(r.SelfUnreachable), check(r.SelfMappingWorks), check(r.SelfRoutingStable))
	fmt.Fprintf(&b, "address == controller: maps inconsistent: %s; faulty map varies per round: %s\n",
		check(r.CtrlMapsInconsistent), check(r.CtrlMapsVary))
	fmt.Fprintf(&b, "address -> nonexistent: ghost mapped: %s; real node gone: %s; ghost traffic dropped: %s\n",
		check(r.GhostInMap), check(r.RealGone), check(r.GhostTrafficDrops))
	b.WriteString("\n-- Fig. 11, before --\n")
	b.WriteString(r.CtrlFigBefore)
	b.WriteString("-- Fig. 11, after --\n")
	b.WriteString(r.CtrlFigAfter)
	return b.String()
}
