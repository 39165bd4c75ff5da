package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The adaptive-horizon equivalence harness: a mesh of forwarding nodes whose
// traffic is a pure function of the seed, runnable at any shard count. Each
// reception re-forwards the message over a deterministic pseudo-random walk,
// so the full per-node observation history must be byte-identical no matter
// how the nodes are partitioned — the window schedule may differ, the
// executed history may not.

const meshLat = 50 * Nanosecond // minimum cable latency = group lookahead

type meshRec struct {
	at    Time
	state uint64
	hops  int
}

type meshMsg struct {
	dst   int
	state uint64
	hops  int
}

type meshExt struct {
	dst  int
	at   Time
	rank uint32
	seq  uint64
	msg  *meshMsg
}

type meshNode struct {
	net *meshNet
	id  int
	// trace is only appended by the goroutine owning this node's kernel.
	trace []meshRec
}

type meshNet struct {
	g       *ShardGroup
	kernels []*Kernel
	shardOf []int
	nodes   []*meshNode
	seqs    []uint64 // per directed cable src*N+dst, bumped by src's owner
	// outbox[s] holds shard s's cross-shard sends; only s's owner appends,
	// only the barrier exchange drains.
	outbox [][]meshExt
}

func meshLCG(s uint64) uint64 { return s*6364136223846793005 + 1442695040888963407 }

func (n *meshNode) receive(arg any) {
	m := arg.(*meshMsg)
	now := n.net.kernels[n.net.shardOf[n.id]].Now()
	n.trace = append(n.trace, meshRec{at: now, state: m.state, hops: m.hops})
	if m.hops == 0 {
		return
	}
	next := meshLCG(m.state)
	dst := int(next % uint64(len(n.net.nodes)))
	delay := meshLat * Duration(1+(next>>16)%3)
	n.net.send(n.id, dst, now+delay, next, m.hops-1)
}

// send routes a message from node src to node dst arriving at `at`. Same
// shard: scheduled synchronously, exactly like phy.DirectEnd. Cross shard:
// buffered for the barrier exchange, exactly like phy.ChannelEnd. Either
// way the (rank, seq) stamp comes from the directed cable, so the kernel's
// external total order is partition-independent.
func (net *meshNet) send(src, dst int, at Time, state uint64, hops int) {
	cable := src*len(net.nodes) + dst
	rank := uint32(cable)
	seq := net.seqs[cable]
	net.seqs[cable]++
	msg := &meshMsg{dst: dst, state: state, hops: hops}
	if net.shardOf[src] == net.shardOf[dst] {
		net.kernels[net.shardOf[dst]].AtExt(at, rank, seq, net.nodes[dst].receive, msg)
		return
	}
	s := net.shardOf[src]
	net.outbox[s] = append(net.outbox[s], meshExt{dst: dst, at: at, rank: rank, seq: seq, msg: msg})
}

func (net *meshNet) exchange(Time) int {
	n := 0
	for s := range net.outbox {
		for _, e := range net.outbox[s] {
			net.kernels[net.shardOf[e.dst]].AtExt(e.at, e.rank, e.seq, net.nodes[e.dst].receive, e.msg)
		}
		n += len(net.outbox[s])
		net.outbox[s] = net.outbox[s][:0]
	}
	return n
}

// buildMesh builds the mesh at the given shard count with the seeded initial
// traffic injected and the exchange installed, ready to Run.
func buildMesh(seed int64, numNodes, shards int) *meshNet {
	rng := rand.New(rand.NewSource(seed))
	net := &meshNet{
		kernels: make([]*Kernel, shards),
		shardOf: make([]int, numNodes),
		nodes:   make([]*meshNode, numNodes),
		seqs:    make([]uint64, numNodes*numNodes+numNodes),
		outbox:  make([][]meshExt, shards),
	}
	for s := range net.kernels {
		net.kernels[s] = NewKernel(int64(s) + 1)
	}
	for i := range net.nodes {
		net.shardOf[i] = i % shards
		net.nodes[i] = &meshNode{net: net, id: i}
	}
	// Initial traffic: a few seeded messages per node on that node's private
	// injector cable (ranks above the mesh cables). The shape is drawn from
	// rng before any sharding decision, so it is identical at every count.
	for i := 0; i < numNodes; i++ {
		for m := 0; m < 4; m++ {
			at := Time(rng.Int63n(int64(40 * meshLat)))
			state := rng.Uint64()
			hops := 3 + rng.Intn(5)
			cable := numNodes*numNodes + i
			seq := net.seqs[cable]
			net.seqs[cable]++
			net.kernels[net.shardOf[i]].AtExt(at, uint32(cable), seq,
				net.nodes[i].receive, &meshMsg{dst: i, state: state, hops: hops})
		}
	}
	net.g = NewShardGroup(net.kernels, meshLat)
	net.g.SetExchange(net.exchange)
	return net
}

// runMesh runs the mesh to quiescence and returns the per-node traces.
func runMesh(t *testing.T, seed int64, numNodes, shards int) ([][]meshRec, Time, uint64) {
	t.Helper()
	net := buildMesh(seed, numNodes, shards)
	defer net.g.Close()
	if !net.g.Run(Second) {
		t.Fatalf("seed %d shards %d: mesh did not drain", seed, shards)
	}
	traces := make([][]meshRec, numNodes)
	for i, n := range net.nodes {
		traces[i] = n.trace
	}
	return traces, net.g.Now(), net.g.Processed()
}

// TestShardGroupAdaptiveEquivalence is the randomized form of the fabric
// equivalence gates: for a handful of seeds, the per-node observation
// history, final time, and executed-event count of the mesh must be
// identical at shard counts 1, 2, and 3 whatever windows each count cuts.
func TestShardGroupAdaptiveEquivalence(t *testing.T) {
	const numNodes = 6
	for _, seed := range []int64{1, 7, 42, 1001} {
		want, wantNow, wantProcessed := runMesh(t, seed, numNodes, 1)
		for _, shards := range []int{2, 3} {
			got, gotNow, gotProcessed := runMesh(t, seed, numNodes, shards)
			if gotNow != wantNow {
				t.Errorf("seed %d shards %d: Now = %v, want %v", seed, shards, gotNow, wantNow)
			}
			if gotProcessed != wantProcessed {
				t.Errorf("seed %d shards %d: Processed = %d, want %d", seed, shards, gotProcessed, wantProcessed)
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("seed %d shards %d node %d: %d receptions, want %d",
						seed, shards, i, len(got[i]), len(want[i]))
				}
				for r := range want[i] {
					if got[i][r] != want[i][r] {
						t.Fatalf("seed %d shards %d node %d rec %d: %+v, want %+v",
							seed, shards, i, r, got[i][r], want[i][r])
					}
				}
			}
		}
	}
}

// A one-kernel group has no peer to wait for: however short its lookahead,
// it runs every pending event in a single window.
func TestShardGroupOneKernelOneWindow(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for at := Time(0); at < 1000*Nanosecond; at += 10 * Nanosecond {
		k.At(at, func() { n++ })
	}
	g := NewShardGroup([]*Kernel{k}, 50*Nanosecond)
	defer g.Close()
	if !g.Run(Second) {
		t.Fatal("did not drain")
	}
	if n != 100 {
		t.Fatalf("executed %d events, want 100", n)
	}
	if g.Windows() != 1 {
		t.Fatalf("Windows = %d, want 1 (one kernel runs to the limit)", g.Windows())
	}
}

// The window stops one picosecond short of T + lookahead. A delivery sent
// at the window's first instant over a channel exactly one lookahead long
// lands at T + lookahead, where the receiver also holds a local event; the
// external delivery must fire first. A horizon reaching T + lookahead would
// run the local event before the barrier injected the delivery.
func TestShardGroupHorizonStopsShort(t *testing.T) {
	const lookahead = 50 * Nanosecond
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	var outbox []Time
	var order []string
	kernels[0].At(0, func() { outbox = append(outbox, kernels[0].Now()+lookahead) })
	kernels[1].At(lookahead, func() { order = append(order, "local") })
	g := NewShardGroup(kernels, lookahead)
	defer g.Close()
	g.SetExchange(func(Time) int {
		n := len(outbox)
		for i, at := range outbox {
			kernels[1].AtExt(at, 0, uint64(i), func(any) { order = append(order, "delivery") }, nil)
		}
		outbox = outbox[:0]
		return n
	})
	if !g.Run(Second) {
		t.Fatal("did not drain")
	}
	if len(order) != 2 || order[0] != "delivery" {
		t.Fatalf("fired %v, want the delivery before the local event at the same instant", order)
	}
}

// Run must pick up deliveries already buffered in the exchange before the
// first window: a group whose kernels are empty but whose outboxes are not
// has work to do.
func TestShardGroupDrainBufferedExchange(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	received := 0
	pending := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	g := NewShardGroup(kernels, 50*Nanosecond)
	defer g.Close()
	g.SetExchange(func(Time) int {
		n := len(pending)
		for i, at := range pending {
			kernels[1].AtExt(at, 0, uint64(i), func(any) { received++ }, nil)
		}
		pending = pending[:0]
		return n
	})
	if !g.Run(Second) {
		t.Fatal("did not drain")
	}
	if received != 3 {
		t.Fatalf("received %d buffered deliveries, want 3", received)
	}
	if g.Exchanged() != 3 {
		t.Fatalf("Exchanged = %d, want 3", g.Exchanged())
	}
}

// A limit landing inside a window truncates the horizon: events at the limit
// execute, events past it survive, and every clock parks exactly at the
// limit until a later Run picks the remainder up.
func TestShardGroupLimitMidWindow(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	var fired []Time
	for _, at := range []Time{0, 50 * Nanosecond, 60 * Nanosecond} {
		at := at
		kernels[0].At(at, func() { fired = append(fired, at) })
	}
	g := NewShardGroup(kernels, 100*Nanosecond)
	defer g.Close()
	// Lookahead 100ns anchors the first window at [0, 99], but the limit
	// cuts it to [0, 50].
	if g.Run(50 * Nanosecond) {
		t.Fatal("claimed to drain with the 60ns event pending")
	}
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 50*Nanosecond {
		t.Fatalf("fired %v, want [0 50ns] (limit is inclusive)", fired)
	}
	for i, k := range kernels {
		if k.Now() != 50*Nanosecond {
			t.Fatalf("kernel %d clock %v, want the 50ns limit", i, k.Now())
		}
	}
	if !g.Run(Second) {
		t.Fatal("resumed run did not drain")
	}
	if len(fired) != 3 || fired[2] != 60*Nanosecond {
		t.Fatalf("after resume fired %v, want the 60ns event last", fired)
	}
	// Drained: both clocks align at the global last-event time.
	for i, k := range kernels {
		if k.Now() != 60*Nanosecond {
			t.Fatalf("kernel %d clock %v, want 60ns after drain", i, k.Now())
		}
	}
}

// Close is idempotent; any Run after Close panics instead of deadlocking on
// the departed workers.
func TestShardGroupCloseThenReuse(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2), NewKernel(3)}
	g := NewShardGroup(kernels, 50*Nanosecond)
	g.Close()
	g.Close() // second close is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	g.Run(Second)
}

// Barrier waiters spin for as long as the group is inside Run. Spinning
// yields the processor, so a group on one CPU must still finish the same
// windows with the same events as on two, and once Run returns the barrier
// stops spinning: the idle worker parks until the next Run.
func TestShardGroupSpinsOnlyInsideRun(t *testing.T) {
	type result struct {
		processed [2][2]uint64 // [phase][kernel]
		windows   [2]uint64
	}
	run := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		net := buildMesh(42, 8, 2)
		defer net.g.Close()
		var r result
		for phase, limit := range []Time{20 * meshLat, Second} {
			net.g.Run(limit)
			for i, k := range net.kernels {
				r.processed[phase][i] = k.Processed()
			}
			r.windows[phase] = net.g.Windows()
			if net.g.bar.running.Load() {
				t.Fatalf("GOMAXPROCS(%d) phase %d: barrier still spinning after Run returned", procs, phase)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				net.g.bar.mu.Lock()
				parked := net.g.bar.parked
				net.g.bar.mu.Unlock()
				if parked == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS(%d) phase %d: idle worker never parked (%d parked)", procs, phase, parked)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if net.g.Pending() != 0 {
			t.Fatalf("GOMAXPROCS(%d): %d events left pending", procs, net.g.Pending())
		}
		return r
	}
	one, two := run(1), run(2)
	if one != two {
		t.Fatalf("GOMAXPROCS(1) ran %+v, GOMAXPROCS(2) ran %+v", one, two)
	}
	if one.windows[0] == 0 || one.windows[1] <= one.windows[0] {
		t.Fatalf("both phases must cut windows: %+v", one)
	}
}
