// Package campaign is the NFTAPE-style management and control framework the
// paper drives its experiments with (§1, [Sto00]): it builds the Fig. 10
// test bed (three hosts on an 8-port Myrinet switch with the fault injector
// spliced into one host's cable), orchestrates workloads, reconfigures the
// injector over its serial console, resets to a known-good state between
// runs (a fresh deterministic simulation per run), collects measurements,
// and classifies outcomes as active or passive faults (§4.4).
package campaign

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"netfi/internal/core"
	"netfi/internal/host"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/serial"
	"netfi/internal/sim"
)

// Injection directions on the tapped cable.
const (
	// DirOutbound corrupts data flowing from the tapped node toward the
	// switch.
	DirOutbound = core.LeftToRight
	// DirInbound corrupts data flowing from the switch toward the tapped
	// node.
	DirInbound = core.RightToLeft
)

// TestbedConfig parameterizes a run. The zero value reproduces the paper's
// setup.
type TestbedConfig struct {
	// Seed drives all randomness; identical seeds give identical runs —
	// the "known good state" reset requirement of §4.2.
	Seed int64
	// Nodes is the host count (Fig. 10 uses 3). Zero selects 3.
	Nodes int
	// Mapping enables the MCP mapping protocol. When false, static
	// routes are installed (faster, for experiments that do not involve
	// the mapping plane).
	Mapping bool
	// MapPeriod overrides the 1 s mapping period (mapping experiments
	// compress time).
	MapPeriod sim.Duration
	// TapNode selects whose cable carries the injector. Default 0 (the
	// PC in Fig. 10).
	TapNode int
	// NoInjector builds the bare network (control runs for the
	// transparency comparison). Injector and Console stay nil.
	NoInjector bool
	// TxQueueLimit bounds each NIC's transmit queue. Zero selects 32.
	TxQueueLimit int
	// Recovery configures the failure-recovery layer on every link
	// controller and switch port. The zero value (disabled) reproduces
	// the paper's hardware, which hangs on lost GAPs.
	Recovery myrinet.RecoveryConfig
}

// Testbed is a fully wired Fig. 10 network plus instrumentation. It owns
// its parts: the switch, the nodes, and each node's cable to the switch,
// indexed like Nodes.
type Testbed struct {
	K        *sim.Kernel
	Switch   *myrinet.Switch
	Nodes    []*host.Node
	cables   []*phy.Cable
	Injector *core.Device
	Console  *serial.Console
	cfg      TestbedConfig

	load *Load
}

// NodeMAC returns the conventional address of node i. The byte values
// deliberately avoid every control-symbol code (0x0F, 0x0C, 0x03 and the
// degraded forms), extending the paper's workload discipline — "the symbol
// mask we corrupted did not appear in the message itself" — to the
// addresses, which also traverse the tapped link in every packet.
func NodeMAC(i int) myrinet.MAC {
	return myrinet.MAC{0x06, 0x60, 0x8C, 0x40, 0x40, byte(0x11 + i)}
}

// NewTestbed builds and warms up a test bed. With mapping enabled it runs
// the simulation until the first mapping round has distributed routes.
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.TxQueueLimit == 0 {
		cfg.TxQueueLimit = 32
	}
	if cfg.MapPeriod == 0 {
		cfg.MapPeriod = sim.Second
	}
	k := sim.NewKernel(cfg.Seed)
	sw := myrinet.NewSwitch(k, "sw0", myrinet.DefaultPortCount)
	sw.SetRecovery(cfg.Recovery)

	tb := &Testbed{K: k, Switch: sw, cables: make([]*phy.Cable, 0, cfg.Nodes), cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		mapping := myrinet.MappingConfig{}
		if cfg.Mapping {
			mapping = myrinet.MappingConfig{
				Enabled:       true,
				InitialMapper: i == cfg.Nodes-1, // highest ID maps (§4.1)
				MapPeriod:     cfg.MapPeriod,
			}
		}
		n := host.NewNode(k, host.NodeConfig{
			Name: fmt.Sprintf("node%d", i),
			MAC:  NodeMAC(i),
			ID:   myrinet.NodeID(i + 1),
			// Campaign hosts flood aggressively ("the network was
			// operating at full capacity", §4.3.1): a fast send path
			// keeps several packets queued at the NIC so bursts from
			// different nodes overlap on the wire and flow control
			// stays continuously exercised.
			SendOverhead: 10 * sim.Microsecond,
			TxQueueLimit: cfg.TxQueueLimit,
			Mapping:      mapping,
			Recovery:     cfg.Recovery,
		})
		tb.Nodes = append(tb.Nodes, n)
		tb.cables = append(tb.cables, connectNode(k, n, sw, i))
	}
	if !cfg.Mapping {
		for _, a := range tb.Nodes {
			for j, b := range tb.Nodes {
				if a != b {
					a.Interface().SetRoute(b.MAC(), myrinet.RouteTo(j))
				}
			}
		}
	}

	if cfg.NoInjector {
		if cfg.Mapping {
			k.RunFor(10 * sim.Millisecond)
		}
		return tb
	}
	// Splice the injector into the tapped node's cable.
	tb.Injector = core.NewDevice(k, core.DeviceConfig{
		Name: "injector",
		// Footnote 5's unknown transceiver delay: the Myricom FI3
		// chips; with the 250 ns pipeline this lands the true added
		// latency near Table 2's observed center.
		ExtraLatency: 500 * sim.Nanosecond,
	})
	tb.Injector.Insert(tb.cables[cfg.TapNode])
	tb.Console = serial.NewConsole(k, tb.Injector, serial.DefaultBaud)

	if cfg.Mapping {
		// Warm up: initial delay (1 ms) + scouts + distribution.
		k.RunFor(10 * sim.Millisecond)
	}
	return tb
}

// connectNode cables node n to port p of sw.
func connectNode(k *sim.Kernel, n *host.Node, sw *myrinet.Switch, p int) *phy.Cable {
	name := fmt.Sprintf("%s<->%s.p%d", n.Name(), sw.Name(), p)
	return myrinet.Connect(k, myrinet.DefaultLinkConfig(name), n.Interface(), myrinet.Port(sw, p))
}

// TapNode returns the node whose cable carries the injector.
func (tb *Testbed) TapNode() *host.Node { return tb.Nodes[tb.cfg.TapNode] }

// eachCounters calls fn on the counters of every switch port, then of every
// node's interface: the walk behind each network-wide sum. (A callback, not
// an iterator: the module's Go version predates range-over-func.)
func (tb *Testbed) eachCounters(fn func(c *myrinet.Counters)) {
	for p := 0; p < tb.Switch.Ports(); p++ {
		fn(tb.Switch.PortCounters(p))
	}
	for _, nd := range tb.Nodes {
		fn(nd.Interface().Counters())
	}
}

// Drops sums packet drops over every switch port and node interface: the
// network-wide loss counter.
func (tb *Testbed) Drops() uint64 {
	var n uint64
	tb.eachCounters(func(c *myrinet.Counters) { n += c.TotalDrops() })
	return n
}

// Configure sends command lines to the injector over the serial console and
// advances the simulation until the board has answered each of them —
// reconfiguration costs real (simulated) time, as it did through the
// paper's RS-232 path. A line's answer is its terminal "OK" or "ERR …" line
// (STAT, CAP and RULE LIST print data lines before it). The error names the
// first line not answered OK.
func (tb *Testbed) Configure(cmds ...string) error {
	before := len(tb.Console.Responses())
	for _, c := range cmds {
		tb.Console.Send(c)
	}
	// A command byte takes ~87 us at 115200 baud: 3 ms covers a legacy
	// command, and long lines (RULE ADD) run on a millisecond at a time.
	tb.K.RunFor(sim.Duration(len(cmds)) * 3 * sim.Millisecond)
	for wait := 0; wait < 100 && answers(tb.Console.Responses()[before:]) < len(cmds); wait++ {
		tb.K.RunFor(sim.Millisecond)
	}
	i := 0
	for _, line := range tb.Console.Responses()[before:] {
		if !isAnswer(line) || i == len(cmds) {
			continue
		}
		if line != "OK" {
			return errors.New("campaign: " + strconv.Quote(cmds[i]) + " -> " + strconv.Quote(line))
		}
		i++
	}
	if i < len(cmds) {
		return errors.New("campaign: no answer to " + strconv.Quote(cmds[i]))
	}
	return nil
}

// mustConfigure is Configure for the paper's sections and the campaigns'
// own set-up, whose fixed command lines the injector always accepts.
func (tb *Testbed) mustConfigure(cmds ...string) {
	if err := tb.Configure(cmds...); err != nil {
		panic(err)
	}
}

// mustBind binds port on n for the campaigns' own receivers. Each port is
// bound once, on a freshly built node, so Bind cannot fail here.
func mustBind(n *host.Node, port uint16, handler func(myrinet.MAC, uint16, []byte)) *host.Socket {
	s, err := n.Bind(port, handler)
	if err != nil {
		panic(err)
	}
	return s
}

// isAnswer reports whether a console line ends a command's response.
func isAnswer(line string) bool { return line == "OK" || strings.HasPrefix(line, "ERR") }

// answers counts the command responses among console lines.
func answers(lines []string) int {
	n := 0
	for _, l := range lines {
		if isAnswer(l) {
			n++
		}
	}
	return n
}

// ConfigureBothMode arms or disarms both directions' triggers.
func (tb *Testbed) ConfigureBothMode(on bool) {
	mode := core.MatchOff
	if on {
		mode = core.MatchOn
	}
	tb.Injector.Engine(DirOutbound).SetMatchMode(mode)
	tb.Injector.Engine(DirInbound).SetMatchMode(mode)
}

// Injections sums both directions' injection counters.
func (tb *Testbed) Injections() uint64 {
	_, _, a := tb.Injector.Engine(DirOutbound).Stats()
	_, _, b := tb.Injector.Engine(DirInbound).Stats()
	return a + b
}
