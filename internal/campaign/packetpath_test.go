package campaign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"netfi/internal/core"
	"netfi/internal/myrinet"
	"netfi/internal/rules"
	"netfi/internal/sim"
	"netfi/internal/topo"
)

// silentRuleProgram compiles 64 armed rules that can never fire: each pairs
// a data byte with control code 0xEE, which no link ever transmits.
func silentRuleProgram(t *testing.T) *rules.Program {
	t.Helper()
	rs := make([]rules.Rule, 64)
	for i := range rs {
		rs[i] = rules.Rule{
			ID:     i + 1,
			Mode:   rules.ModeOn,
			Action: rules.ActionToggle,
			Steps: []rules.Step{
				{Sym: 0x100 | uint16(0x80+i), Mask: rules.SymbolMask},
				{Sym: 0x0EE, Mask: rules.SymbolMask},
			},
			CorruptData: []uint16{0, 0x01},
		}
	}
	prog, err := rules.Compile(rs, rules.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTestbedStreamEvents pins the kernel events a short Fig. 10 load
// costs: the bed at full capacity with a silent 64-rule set armed on both
// injector engines, 3 ms of load and a 5 ms drain. The received count pins
// the simulated outcome; the event count catches a change that makes the
// symbol path more event-dense (an idle character or a timer pet becoming
// an event of its own again) without running the benchmark.
func TestTestbedStreamEvents(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 42, Nodes: 3})
	prog := silentRuleProgram(t)
	for _, dir := range []core.Direction{DirOutbound, DirInbound} {
		tb.Injector.Engine(dir).SetRuleProgram(prog)
	}
	load := tb.StartLoad(LoadConfig{Burst: 8, Period: 100 * sim.Microsecond, Size: 1024})
	tb.K.RunFor(3 * sim.Millisecond)
	load.Stop()
	tb.K.RunFor(5 * sim.Millisecond)
	if got, want := load.Received(), uint64(183); got != want {
		t.Errorf("received %d datagrams, want %d", got, want)
	}
	if got, want := tb.K.Processed(), uint64(211142); got != want {
		t.Errorf("kernel processed %d events, want %d", got, want)
	}
}

// TestUDPRoundTripZeroAlloc pins the datagram path at zero allocations once
// warm: every buffer on it is reused by its owner, so a datagram costs no
// heap object from the sender's SendUDP to the receiver's handler.
func TestUDPRoundTripZeroAlloc(t *testing.T) {
	t.Run("testbed", func(t *testing.T) {
		// SendUDP -> switch -> armed injector -> interface -> socket, and
		// back: the tapped node echoes every datagram from its handler.
		tb := NewTestbed(TestbedConfig{Seed: 42, Nodes: 3})
		prog := silentRuleProgram(t)
		dirs := []core.Direction{DirOutbound, DirInbound}
		for _, dir := range dirs {
			tb.Injector.Engine(dir).SetRuleProgram(prog)
		}
		const port = 7100
		tap, peer := tb.TapNode(), tb.Nodes[1]
		if _, err := tap.Bind(port, func(src myrinet.MAC, _ uint16, data []byte) {
			tap.SendUDP(src, port, port, data)
		}); err != nil {
			t.Fatal(err)
		}
		echoed := 0
		if _, err := peer.Bind(port, func(myrinet.MAC, uint16, []byte) { echoed++ }); err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 1024)
		for i := range msg {
			msg[i] = byte(i)
		}
		cycle := func() {
			peer.SendUDP(tap.MAC(), port, port, msg)
			tb.K.RunFor(2 * sim.Millisecond)
		}
		const warm, runs = 50, 200
		for i := 0; i < warm; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
			t.Errorf("UDP round trip through the injector allocates %.2f objects, want 0", avg)
		}
		// AllocsPerRun calls cycle once more to warm up.
		if want := warm + runs + 1; echoed != want {
			t.Errorf("echoed %d datagrams, want %d", echoed, want)
		}
		for _, dir := range dirs {
			if _, _, injections := tb.Injector.Engine(dir).Stats(); injections != 0 {
				t.Errorf("silent rule set fired %d times on %v", injections, dir)
			}
		}
	})

	t.Run("fabric", func(t *testing.T) {
		tb, err := NewFabricTestbed(FabricConfig{
			Topo:    topo.Config{Switches: 1, Hosts: 2, Seed: 42},
			Packets: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.F.Close()
		tb.Run()
		k := tb.F.HostKernel(0)
		word := uint32(1)
		cycle := func() {
			tb.send(0, 1, word)
			word++
			tb.F.Run(k.Now() + sim.Time(50*sim.Microsecond))
		}
		const warm, runs = 50, 200
		for i := 0; i < warm; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
			t.Errorf("fabric flood packet allocates %.2f objects, want 0", avg)
		}
		if want := uint64(1 + warm + runs + 1); tb.Delivered[1] != want {
			t.Errorf("host 1 received %d packets, want %d", tb.Delivered[1], want)
		}
	})
}

// TestNewTestbedAllocs pins test-bed construction. Its buffers grow on
// first use, so no packet-path work moves into set-up; timers, slack
// buffers and drop counters are embedded in their owners, so recovery's
// watchdogs cost nothing extra, the injector's per-identifier
// statistics are an opt-in tap, not part of the bed, and the console is its
// UARTs' sink without a closure (141 while each UART's sink was one), and
// the bed holds its switch and cables itself (139 while a network container
// with a name-keyed cable map held them).
func TestNewTestbedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, c := range []struct {
		name     string
		recovery bool
		want     float64
	}{
		{"plain", false, 136},
		{"recovery", true, 136},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := TestbedConfig{Seed: 42, Nodes: 3, Recovery: myrinet.RecoveryConfig{Enabled: c.recovery}}
			if got := testing.AllocsPerRun(10, func() { NewTestbed(cfg) }); got != c.want {
				t.Errorf("NewTestbed allocates %v objects, want %v", got, c.want)
			}
		})
	}
}

// liveBuffers reports which reused packet buffers hold live contents. The
// buffers are private to their packages, so it reads them by reflection.
type liveBuffers struct {
	reassembling bool // an interface is mid-packet
	txQueued     bool // a transmit queue holds pooled packets
	sendsPending bool // a host has datagrams waiting for its CPU
	recvQueued   bool // a host's receive ring holds datagrams
	entriesHead  bool // the injector's entry-time queue is partly consumed
}

func (l liveBuffers) all() bool {
	return l.reassembling && l.txQueued && l.sendsPending && l.recvQueued && l.entriesHead
}

func readLiveBuffers(tb *Testbed) liveBuffers {
	var l liveBuffers
	for _, n := range tb.Nodes {
		nv := reflect.ValueOf(n).Elem()
		iv := reflect.ValueOf(n.Interface()).Elem()
		l.reassembling = l.reassembling || iv.FieldByName("inPacket").Bool() && iv.FieldByName("assembling").Len() > 0
		l.txQueued = l.txQueued || n.Interface().Controller().QueuedPackets() > 0
		l.sendsPending = l.sendsPending || sim.Time(nv.FieldByName("sendReadyAt").Int()) > tb.K.Now()
		l.recvQueued = l.recvQueued || nv.FieldByName("recvLen").Int() > 0
	}
	ports := reflect.ValueOf(tb.Injector).Elem().FieldByName("ports")
	for i := 0; i < ports.Len(); i++ {
		l.entriesHead = l.entriesHead || ports.Index(i).Elem().FieldByName("head").Int() > 0
	}
	return l
}

// liveContents digests what the reused packet buffers hold: a fork that
// aliased one of them would change it by running on.
func liveContents(tb *Testbed) uint64 {
	h := fnv.New64a()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	chars := func(v reflect.Value) {
		for i := 0; i < v.Len(); i++ {
			put(int64(v.Index(i).Uint()))
		}
	}
	for _, n := range tb.Nodes {
		nv := reflect.ValueOf(n).Elem()
		iv := reflect.ValueOf(n.Interface()).Elem()
		h.Write(iv.FieldByName("assembling").Bytes())
		ring := nv.FieldByName("recvq")
		head, count := int(nv.FieldByName("recvHead").Int()), int(nv.FieldByName("recvLen").Int())
		for i := 0; i < count; i++ {
			h.Write(ring.Index((head + i) % ring.Len()).FieldByName("data").Bytes())
		}
		h.Write(nv.FieldByName("inRecv").FieldByName("data").Bytes())
		lv := reflect.ValueOf(n.Interface().Controller()).Elem()
		chars(lv.FieldByName("cur").FieldByName("chars"))
		txq := lv.FieldByName("txq")
		for i := int(lv.FieldByName("txHead").Int()); i < txq.Len(); i++ {
			chars(txq.Index(i).FieldByName("chars"))
		}
	}
	ports := reflect.ValueOf(tb.Injector).Elem().FieldByName("ports")
	for i := 0; i < ports.Len(); i++ {
		p := ports.Index(i).Elem()
		entries := p.FieldByName("entries")
		for j := int(p.FieldByName("head").Int()); j < entries.Len(); j++ {
			put(entries.Index(j).Int())
		}
	}
	return h.Sum64()
}

// scribble overwrites a slice's whole backing array, up to its capacity.
func scribble(v reflect.Value) {
	if v.Cap() == 0 {
		return
	}
	b := unsafe.Slice((*byte)(v.UnsafePointer()), v.Cap()*int(v.Type().Elem().Size()))
	for i := range b {
		b[i] = 0xA5
	}
}

// scribbleBuffers overwrites every reused packet buffer tb reaches: the
// damage a fork could do to its base if any of them were shared.
func scribbleBuffers(tb *Testbed) {
	for _, n := range tb.Nodes {
		nv := reflect.ValueOf(n).Elem()
		iv := reflect.ValueOf(n.Interface()).Elem()
		scribble(iv.FieldByName("assembling"))
		ring := nv.FieldByName("recvq")
		for i := 0; i < ring.Len(); i++ {
			scribble(ring.Index(i).FieldByName("data"))
		}
		scribble(nv.FieldByName("inRecv").FieldByName("data"))
		free := nv.FieldByName("freeSends")
		for i := 0; i < free.Len(); i++ {
			scribble(free.Index(i).Elem().FieldByName("dgram"))
		}
		lv := reflect.ValueOf(n.Interface().Controller()).Elem()
		scribble(lv.FieldByName("cur").FieldByName("chars"))
		txq := lv.FieldByName("txq")
		for i := 0; i < txq.Len(); i++ {
			scribble(txq.Index(i).FieldByName("chars"))
		}
	}
	ports := reflect.ValueOf(tb.Injector).Elem().FieldByName("ports")
	for i := 0; i < ports.Len(); i++ {
		scribble(ports.Index(i).Elem().FieldByName("entries"))
	}
	scribble(reflect.ValueOf(tb.load.buf))
}

// TestForkWithPacketBuffersInFlight forks a saturated bed at instants where
// every reused packet buffer holds live contents — partial reassembly,
// pooled transmit queues, pending sends, queued receives, a partly consumed
// injector queue — and requires each fork to match a rebuild. Eight
// concurrent forks then run on and overwrite every one of those buffers;
// the base's buffers, its fingerprint and its own continuation must show
// that none of them was shared (and the race detector, that no fork read
// or wrote base memory).
func TestForkWithPacketBuffersInFlight(t *testing.T) {
	opts := chaosTestOptions(2024, 1)
	build := func() *chaosBase {
		b := newChaosBase(opts.Seed, opts)
		b.tb.StartLoad(LoadConfig{Burst: 8, Period: 100 * sim.Microsecond, Size: 1024})
		return b
	}
	fingerprint := func(b *chaosBase) string {
		l := b.tb.Load()
		return chaosFingerprint(b.tb, b.mon, b.rels) +
			fmt.Sprintf("load sent=%d received=%d corrupt=%d\n", l.Sent(), l.Received(), l.CorruptAccepted())
	}
	const (
		step    = 7 * sim.Microsecond
		tail    = 2 * sim.Millisecond
		forks   = 3
		maxStep = 3000
	)
	base := build()
	var instants []int
	for steps := 1; steps <= maxStep && len(instants) < forks; steps++ {
		base.tb.K.RunFor(step)
		if !readLiveBuffers(base.tb).all() {
			continue
		}
		instants = append(instants, steps)
		fork, err := base.fork()
		if err != nil {
			t.Fatal(err)
		}
		fork.tb.K.RunFor(tail)
		rebuilt := build()
		for i := 0; i < steps; i++ {
			rebuilt.tb.K.RunFor(step)
		}
		rebuilt.tb.K.RunFor(tail)
		if f, r := fingerprint(fork), fingerprint(rebuilt); f != r {
			t.Errorf("fork at step %d diverges from rebuild", steps)
			diffFingerprints(t, f, r)
			return
		}
	}
	if len(instants) < forks {
		t.Fatalf("found %d instants with every buffer live in %d steps, want %d", len(instants), maxStep, forks)
	}

	// The reference continuation, from a fork taken before any other runs.
	ref, err := base.fork()
	if err != nil {
		t.Fatal(err)
	}
	ref.tb.K.RunFor(tail)
	want := fingerprint(ref)

	before, contents := fingerprint(base), liveContents(base.tb)
	got := make([]string, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := base.fork()
			if err != nil {
				errs[i] = err
				return
			}
			f.tb.K.RunFor(tail)
			got[i] = fingerprint(f)
			scribbleBuffers(f.tb)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent fork %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("concurrent fork %d diverges from the reference continuation", i)
		}
	}
	if after := fingerprint(base); after != before {
		t.Error("running forks changed the base's fingerprint")
		diffFingerprints(t, after, before)
	}
	if liveContents(base.tb) != contents {
		t.Error("running forks overwrote the base's packet buffers")
	}
	base.tb.K.RunFor(tail)
	if got := fingerprint(base); got != want {
		t.Error("the base's own continuation diverges from its forks'")
		diffFingerprints(t, got, want)
	}
}
