package host

import (
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// PingPongResult summarizes one latency experiment: the paper's Table 2
// methodology (two nodes exchanging small UDP packets, each side waiting
// for the other's packet before sending).
type PingPongResult struct {
	Rounds      int
	TotalTime   sim.Duration
	PerPacket   sim.Duration // average time per packet (Table 2's metric)
	LostTimeout bool         // the exchange wedged before finishing
}

// PingPong runs a ping-pong exchange of rounds small packets between a and
// b, starting when the kernel reaches start. The returned result is valid
// after the kernel has run past the experiment.
func PingPong(k *sim.Kernel, a, b *Node, rounds int, payload int, done func(PingPongResult)) {
	const portA, portB = 7001, 7002
	data := make([]byte, payload)
	var began sim.Time
	completed := 0

	sockB, err := b.Bind(portB, nil)
	if err != nil {
		panic(err)
	}
	sockB.handler = func(src myrinet.MAC, srcPort uint16, d []byte) {
		// Echo back immediately (the remote waits for it).
		b.SendUDP(a.MAC(), portB, portA, d)
	}
	var sockA *Socket
	sockA, err = a.Bind(portA, nil)
	if err != nil {
		panic(err)
	}
	sockA.handler = func(src myrinet.MAC, srcPort uint16, d []byte) {
		completed++
		if completed >= rounds {
			total := k.Now() - began
			res := PingPongResult{
				Rounds:    completed,
				TotalTime: total,
				// Two packets cross the network per round.
				PerPacket: total / sim.Duration(2*rounds),
			}
			sockA.Close()
			sockB.Close()
			done(res)
			return
		}
		a.SendUDP(b.MAC(), portA, portB, d)
	}
	began = k.Now()
	a.SendUDP(b.MAC(), portA, portB, data)
}

// Heartbeat is the liveness beacon the monitoring plane's accrual failure
// detectors calibrate against: small fixed-interval datagrams to one peer,
// bounded by a horizon so that quiescence-based campaigns still drain. The
// payload byte stays clear of every control-symbol code, preserving the
// workload discipline fault campaigns rely on.
type Heartbeat struct {
	k       *sim.Kernel
	node    *Node
	dst     myrinet.MAC
	payload []byte
	until   sim.Time

	sent    uint64
	running bool
}

// HeartbeatConfig parameterizes a beacon.
type HeartbeatConfig struct {
	// Dst is the monitored peer's address.
	Dst myrinet.MAC
	// Until, when nonzero, is the absolute simulation time past which no
	// beacon is sent: the horizon that lets hang detectors see the event
	// queue drain. Zero runs until Stop.
	Until sim.Time
}

// HeartbeatPort is the UDP port beacons leave from and arrive on.
const HeartbeatPort = 7100

// heartbeatInterval is the beacon period.
const heartbeatInterval = 2 * sim.Millisecond

// heartbeatSize is the beacon payload length.
const heartbeatSize = 8

// NewHeartbeat builds a beacon on node.
func NewHeartbeat(k *sim.Kernel, node *Node, cfg HeartbeatConfig) *Heartbeat {
	payload := make([]byte, heartbeatSize)
	for i := range payload {
		payload[i] = 0x48 // 'H', clear of all control codes
	}
	return &Heartbeat{
		k:       k,
		node:    node,
		dst:     cfg.Dst,
		payload: payload,
		until:   cfg.Until,
	}
}

// Start begins beaconing; the first beat goes out immediately.
func (h *Heartbeat) Start() {
	if h.running {
		return
	}
	h.running = true
	h.beat()
}

// Stop halts the beacon.
func (h *Heartbeat) Stop() { h.running = false }

// Sent reports beacons handed to the stack.
func (h *Heartbeat) Sent() uint64 { return h.sent }

func (h *Heartbeat) beat() {
	if !h.running {
		return
	}
	if h.until != 0 && h.k.Now() > h.until {
		h.running = false
		return
	}
	h.node.SendUDP(h.dst, HeartbeatPort, HeartbeatPort, h.payload)
	h.sent++
	if h.until != 0 && h.k.Now()+sim.Time(heartbeatInterval) > h.until {
		h.running = false
		return
	}
	h.k.AfterArg(heartbeatInterval, heartbeatBeat, h)
}

func heartbeatBeat(a any) { a.(*Heartbeat).beat() }
