package campaign

import (
	"netfi/internal/host"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Load is the campaign workload of §4.2: "a simple UDP packet generation
// program, running concurrently with the standard Unix ping program with
// the flood option" — modeled as synchronized bursts from every node,
// alternating destinations packet by packet so switch outputs stay
// contended and flow control (STOP/GO) is continuously exercised.
//
// Payloads carry a tag and sequence so receivers can verify integrity at
// the application level: a packet that arrives with a damaged tag yet
// passed every checksum is an ACTIVE fault (incorrect data passed to a
// higher level, §4.4); anything merely missing is PASSIVE.
type Load struct {
	tb     *Testbed
	burst  int
	period sim.Duration
	size   int

	running bool
	seq     uint32

	sent            uint64
	received        uint64
	corruptAccepted uint64
	perNodeRecv     []uint64

	socks []*host.Socket // per-node receivers, kept so a fork can rebind

	// buf is the payload scratch: SendUDP copies it, so every datagram
	// reuses it and only the sequence bytes change.
	buf []byte
}

const (
	loadSrcPort = 9000
	loadDstPort = 9001
	// loadTag marks valid workload payloads; its bytes avoid every
	// control-symbol code ("the symbol mask we corrupted did not appear
	// in the message itself", §4.3.1).
	loadTagLen = 4
)

var loadTag = [loadTagLen]byte{'N', 'F', 'T', 'A'}

// LoadConfig parameterizes the workload.
type LoadConfig struct {
	// Burst is packets per node per period. Zero selects 10.
	Burst int
	// Period is the burst interval. Zero selects 12.5 ms (so each node
	// offers the ~800 msg/s that matches the paper's 48000 msgs/minute
	// healthy baseline).
	Period sim.Duration
	// Size is the UDP payload length. Zero selects 512: a packet then
	// occupies the wire for ~540 character periods, longer than the
	// slack-buffer high watermark, so destination blocking reliably
	// drives the blocked input across its watermark and STOP/GO symbols
	// flow — the precondition for the Table 4 corruption campaign.
	Size int
}

// StartLoad binds receivers on every node and begins the burst schedule.
func (tb *Testbed) StartLoad(cfg LoadConfig) *Load {
	if tb.load != nil {
		panic("campaign: load already started")
	}
	if cfg.Burst == 0 {
		cfg.Burst = 10
	}
	if cfg.Period == 0 {
		cfg.Period = 12_500 * sim.Microsecond
	}
	if cfg.Size == 0 {
		cfg.Size = 512
	}
	if cfg.Size < loadTagLen+5 {
		panic("campaign: load payload too small for tag+sequence")
	}
	l := &Load{
		tb:          tb,
		burst:       cfg.Burst,
		period:      cfg.Period,
		size:        cfg.Size,
		perNodeRecv: make([]uint64, len(tb.Nodes)),
	}
	for i, n := range tb.Nodes {
		l.socks = append(l.socks, mustBind(n, loadDstPort, l.receiver(i)))
	}
	l.running = true
	tb.load = l
	l.tick()
	return l
}

// receiver is node i's delivery handler.
func (l *Load) receiver(i int) func(myrinet.MAC, uint16, []byte) {
	return func(_ myrinet.MAC, _ uint16, data []byte) { l.onReceive(i, data) }
}

// Stop halts the burst schedule (in-flight packets still drain).
func (l *Load) Stop() { l.running = false }

// Sent and Received report application-level counts across all nodes.
func (l *Load) Sent() uint64 { return l.sent }

// Received reports tag-valid datagrams delivered to the applications.
func (l *Load) Received() uint64 { return l.received }

// CorruptAccepted reports datagrams that reached an application with a
// damaged tag — evidence of an ACTIVE fault.
func (l *Load) CorruptAccepted() uint64 { return l.corruptAccepted }

// NodeReceived reports per-node deliveries.
func (l *Load) NodeReceived(i int) uint64 { return l.perNodeRecv[i] }

// LossRate is 1 - received/sent (0 when nothing was sent).
func (l *Load) LossRate() float64 {
	if l.sent == 0 {
		return 0
	}
	return 1 - float64(l.received)/float64(l.sent)
}

func (l *Load) tick() {
	if !l.running {
		return
	}
	n := len(l.tb.Nodes)
	rng := l.tb.K.Rand()
	for i, node := range l.tb.Nodes {
		for p := 0; p < l.burst; p++ {
			// Pick a random other node per packet: bursts from
			// different senders then collide at switch outputs,
			// keeping destination blocking and STOP/GO continuously
			// exercised.
			dst := (i + 1 + rng.Intn(n-1)) % n
			node.SendUDP(NodeMAC(dst), loadSrcPort, loadDstPort, l.payload())
			l.sent++
		}
	}
	l.tb.K.AfterArg(l.period, loadTick, l)
}

func loadTick(a any) { a.(*Load).tick() }

// payload builds a tagged, sequence-stamped body free of control-symbol
// byte values. The returned slice is overwritten by the next call.
func (l *Load) payload() []byte {
	if len(l.buf) != l.size {
		l.buf = make([]byte, l.size)
		copy(l.buf, loadTag[:])
		for i := loadTagLen + 5; i < len(l.buf); i++ {
			l.buf[i] = 0x55
		}
	}
	data := l.buf
	l.seq++
	s := l.seq
	for i := 0; i < 5; i++ {
		data[loadTagLen+i] = 0x40 | byte(s&0x0F) // 0x40..0x4F: clear of control codes
		s >>= 4
	}
	return data
}

func (l *Load) onReceive(node int, data []byte) {
	if len(data) >= loadTagLen && [loadTagLen]byte(data[:loadTagLen]) == loadTag {
		l.received++
		l.perNodeRecv[node]++
		return
	}
	l.corruptAccepted++
}

// Outcome classifies a run per §4.4's active/passive terminology.
type Outcome struct {
	Sent            uint64  `json:"sent"`
	Received        uint64  `json:"received"`
	LossRate        float64 `json:"loss_rate"`
	CorruptAccepted uint64  `json:"corrupt_accepted"`
	Classification  string  `json:"classification"`
}

// Classify summarizes the load's counters.
func (l *Load) Classify() Outcome {
	o := Outcome{
		Sent:            l.sent,
		Received:        l.received,
		LossRate:        l.LossRate(),
		CorruptAccepted: l.corruptAccepted,
	}
	switch {
	case o.CorruptAccepted > 0:
		o.Classification = "active"
	case o.Received < o.Sent:
		o.Classification = "passive"
	default:
		o.Classification = "no-effect"
	}
	return o
}
