// Package campaign is the NFTAPE-style management and control framework the
// paper drives its experiments with (§1, [Sto00]): it builds the Fig. 10
// test bed (three hosts on an 8-port Myrinet switch with the fault injector
// spliced into one host's cable), orchestrates workloads, reconfigures the
// injector over its serial console, resets to a known-good state between
// runs (a fresh deterministic simulation per run), collects measurements,
// and classifies outcomes as active or passive faults (§4.4).
package campaign

import (
	"fmt"

	"netfi/internal/core"
	"netfi/internal/host"
	"netfi/internal/myrinet"
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

// Testbed is a fully wired Fig. 10 network plus instrumentation.
type Testbed struct {
	K        *sim.Kernel
	Net      *myrinet.Network
	Switch   *myrinet.Switch
	Nodes    []*host.Node
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
	net := myrinet.NewNetwork(k)
	sw := net.AddSwitch("sw0", myrinet.DefaultPortCount)
	sw.SetRecovery(cfg.Recovery)

	tb := &Testbed{K: k, Net: net, Switch: sw, cfg: cfg}
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
		net.ConnectHost(n.Interface(), sw, i)
	}
	if !cfg.Mapping {
		ports := make(map[*myrinet.Interface]int, cfg.Nodes)
		for i, n := range tb.Nodes {
			ports[n.Interface()] = i
		}
		net.InstallStaticRoutes(ports)
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
	cable := net.Cables[tb.Nodes[cfg.TapNode].Name()]
	tb.Injector.Insert(cable)
	tb.Console = serial.NewConsole(k, tb.Injector, serial.DefaultBaud)

	if cfg.Mapping {
		// Warm up: initial delay (1 ms) + scouts + distribution.
		k.RunFor(10 * sim.Millisecond)
	}
	return tb
}

// TapNode returns the node whose cable carries the injector.
func (tb *Testbed) TapNode() *host.Node { return tb.Nodes[tb.cfg.TapNode] }

// Configure sends command lines to the injector over the serial console and
// advances the simulation until the line drains — reconfiguration costs
// real (simulated) time, as it did through the paper's RS-232 path.
func (tb *Testbed) Configure(cmds ...string) {
	for _, c := range cmds {
		tb.Console.Send(c)
	}
	// A command byte takes ~87 us at 115200 baud; run until quiet.
	tb.K.RunFor(sim.Duration(len(cmds)) * 3 * sim.Millisecond)
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
