package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/host"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// MultiRuleResult is the outcome of the multi-target address-corruption
// experiment: a §4.3.3-style campaign that arms one corruption rule per
// destination node in a single rule set, so every target is hit in one
// stream pass instead of one reconfiguration per target.
type MultiRuleResult struct {
	// RulesArmed is the rule-set size; Mode/DFAStates/NFAStates describe
	// the compiled form ("dfa" when subset construction fit the budget).
	RulesArmed int
	Mode       string
	DFAStates  int
	NFAStates  int

	// Targets is the number of distinct destination nodes armed; each has
	// its own REPLACE rule rewriting the destination MAC's last byte to a
	// nonexistent address with the CRC left stale.
	Targets int
	// TargetsDroppedByCRC counts targets whose interface dropped exactly
	// the corrupted packet with an incorrect CRC-8.
	TargetsDroppedByCRC int
	// NoneDelivered reports that no corrupted packet reached any
	// application socket.
	NoneDelivered bool

	// PerRuleFires maps rule ID to its fire counter after the pass; the
	// shared port-toggle rule must have fired once per packet, and the
	// capture-only watch rule must have observed every packet without
	// perturbing the stream.
	PerRuleFires map[int]uint64
	ToggleFires  uint64
	WatchMatches uint64
}

// ghostByte returns the nonexistent MAC-tail byte substituted for target i.
// 0x70..0x7F is clear of every control-symbol code and every real node
// address (0x11 + i).
func ghostByte(i int) byte { return byte(0x70 + i) }

// Rule IDs: one REPLACE rule per target node, then the shared toggle and
// the capture-only watch.
const (
	multiRuleToggleID = 60
	multiRuleWatchID  = 61
)

// RunMultiRule builds a full 8-node test bed (every switch port occupied),
// arms the whole rule set over the serial console in one configuration
// pass, then sends one UDP packet from the tapped node to each of the seven
// other nodes — a single stream pass through the injector that every rule
// acts on concurrently.
func RunMultiRule(opts SectionOptions) MultiRuleResult {
	tb := NewTestbed(TestbedConfig{Seed: opts.Seed, Nodes: myrinet.DefaultPortCount})
	tap := tb.TapNode()
	targets := len(tb.Nodes) - 1

	receivers := make([]*host.Socket, len(tb.Nodes))
	for i, n := range tb.Nodes {
		receivers[i] = mustBind(n, loadDstPort, nil)
	}

	// One configuration pass arms everything. Per target i: the outbound
	// destination MAC tail (..40 40 11+i) followed by the source MAC's
	// first byte identifies a data packet to node i; rewrite the last
	// address byte to a ghost value, CRC left stale. The shared toggle
	// flips the UDP source port's low byte on every workload packet
	// (source MAC tail, then the port's two bytes), and the watch rule
	// observes the tapped node's own source-address tail without touching
	// the stream.
	cmds := []string{"DIR L"}
	for i := 1; i <= targets; i++ {
		m := NodeMAC(i)
		cmds = append(cmds, fmt.Sprintf(
			"RULE ADD %d PRIO %d ACT REPLACE PAT %02X %02X %02X %02X VEC -- -- %02X --",
			i, i, m[3], m[4], m[5], NodeMAC(0)[0], ghostByte(i)))
	}
	src := NodeMAC(0)
	cmds = append(cmds,
		fmt.Sprintf("RULE ADD %d ACT TOGGLE PAT %02X %02X %02X VEC -- -- 01",
			multiRuleToggleID, src[5], byte(loadSrcPort>>8), byte(loadSrcPort&0xFF)),
		fmt.Sprintf("RULE ADD %d ACT CAP PAT %02X %02X %02X",
			multiRuleWatchID, src[3], src[4], src[5]),
	)
	// Every ADD is answered OK before traffic: a late-arriving one would
	// silently re-arm the set mid-pass.
	tb.mustConfigure(cmds...)

	crcBefore := make([]uint64, len(tb.Nodes))
	for i, n := range tb.Nodes {
		crcBefore[i] = n.Interface().Counters().Drops[myrinet.DropCRC]
	}

	// The single pass: one packet per target, payload clear of every
	// armed pattern byte.
	for i := 1; i <= targets; i++ {
		tap.SendUDP(NodeMAC(i), loadSrcPort, loadDstPort, []byte("multirule pass"))
	}
	tb.K.RunFor(20 * sim.Millisecond)

	eng := tb.Injector.Engine(DirOutbound)
	res := MultiRuleResult{
		Targets:      targets,
		PerRuleFires: make(map[int]uint64),
	}
	if prog := eng.RuleProgram(); prog != nil {
		st := prog.Stats()
		res.RulesArmed = st.Rules
		res.Mode = st.Mode
		res.DFAStates = st.DFAStates
		res.NFAStates = st.NFAStates
	}
	for _, r := range eng.Rules() {
		_, f, _ := eng.RuleCounters(r.ID)
		res.PerRuleFires[r.ID] = f
	}
	res.ToggleFires = res.PerRuleFires[multiRuleToggleID]
	m, _, _ := eng.RuleCounters(multiRuleWatchID)
	res.WatchMatches = m

	for i := 1; i <= targets; i++ {
		n := tb.Nodes[i]
		if n.Interface().Counters().Drops[myrinet.DropCRC] == crcBefore[i]+1 {
			res.TargetsDroppedByCRC++
		}
	}
	res.NoneDelivered = true
	for _, r := range receivers {
		if r.Received() != 0 {
			res.NoneDelivered = false
		}
	}
	return res
}

// FormatMultiRule renders the result.
func FormatMultiRule(r MultiRuleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule set: %d rules compiled to %s (%d DFA states, %d NFA states)\n",
		r.RulesArmed, r.Mode, r.DFAStates, r.NFAStates)
	fmt.Fprintf(&b, "single pass over %d targets: %d/%d dropped by stale CRC-8; none delivered: %v\n",
		r.Targets, r.TargetsDroppedByCRC, r.Targets, r.NoneDelivered)
	fmt.Fprintf(&b, "shared port-toggle rule fired %d times; capture-only watch matched %d packets\n",
		r.ToggleFires, r.WatchMatches)
	for i := 1; i <= r.Targets; i++ {
		fmt.Fprintf(&b, "  rule %d (target node%d): fires=%d\n", i, i, r.PerRuleFires[i])
	}
	return b.String()
}
