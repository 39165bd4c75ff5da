// Conservative coordination of multiple kernels with a fixed lookahead.
//
// A ShardGroup advances N kernels in windows separated by barriers. Each
// window gives every shard one horizon h: the shard executes every pending
// event with timestamp <= h and then waits. The horizon is chosen so no
// event executed inside the window can be affected by a cross-shard
// delivery that has not been injected yet — the classic Chandy-Misra-Bryant
// conservative discipline, with the barrier playing the role of null
// messages.
//
// Safe horizon. Let T be the global minimum next-event time and L the
// lookahead: the minimum virtual-time latency of any buffered channel, the
// only way an event can reach another shard (or its own shard across a
// barrier). Every not-yet-injected arrival is caused by an event at or
// after T, so it lands at or after T + L, and
//
//	h = min(limit, T + L - 1)
//
// is safe for every shard. A one-kernel group has no peer and nothing to
// buffer, so its window runs straight to the limit.
//
// Determinism: shards execute external deliveries in a total order carried
// by the events themselves (arrival time, then cable rank, then per-cable
// sequence — see Kernel.AtExt), so the set and order of events each kernel
// executes is a pure function of the traffic, independent of how windows
// happen to be cut. The same simulation sharded 1, 2, or N ways executes
// byte-identically (the fabric equivalence tests pin this down); only the
// window count varies with the partition.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// senseBarrier is a reusable sense-reversing barrier for n participants.
// While the group is inside Run (running is set) an early arriver keeps
// spinning, yielding the processor each turn: the other participants are
// draining a window and will arrive soon, and a parked waiter's wake-up
// would sit on the critical path of the next window. Outside Run, idle
// workers park on a condition variable after a brief spin. Gosched keeps
// it live on a single CPU: it hands the processor to the shard that has
// not arrived yet.
type senseBarrier struct {
	n       int32
	count   atomic.Int32
	sense   atomic.Uint32
	running atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	parked int // waiters asleep on cond; guarded by mu
}

func newSenseBarrier(n int) *senseBarrier {
	b := &senseBarrier{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n participants have called wait. Each participant
// passes a pointer to its private sense flag; the barrier is immediately
// reusable for the next phase.
func (b *senseBarrier) wait(local *uint32) {
	s := *local ^ 1
	*local = s
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		// Publish the sense flip under the mutex so a participant that
		// observed the stale sense and is about to park cannot miss the
		// broadcast.
		b.mu.Lock()
		b.sense.Store(s)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < 128 || b.running.Load(); i++ {
		if b.sense.Load() == s {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	b.parked++
	for b.sense.Load() != s {
		b.cond.Wait()
	}
	b.parked--
	b.mu.Unlock()
}

// ShardGroup drives a set of kernels through conservative windows
// separated by exchange barriers.
//
// The zero value is not usable; construct with NewShardGroup.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead Duration

	// exchange drains every shard's outbox into its peers' kernels at a
	// barrier. It runs with all shards quiescent and must inject events
	// in a deterministic order; it receives the horizon the shards were
	// drained to and returns the number of deliveries moved. Set by the
	// fabric layer via SetExchange.
	exchange func(horizon Time) int

	windows   uint64
	exchanged uint64
	// busiest sums, window by window, the events executed by the shard
	// that executed the most in that window; atStart holds each kernel's
	// Processed() at the window's start.
	busiest uint64
	atStart []uint64

	// Window state. horizon is written by the coordinator before the
	// start barrier; nexts/has are written by each shard's owner after
	// draining, before the end barrier. The barriers order every write
	// against every read.
	horizon Time
	nexts   []Time
	has     []bool

	// Worker machinery for len(kernels) > 1. Worker i owns kernels[i]
	// exclusively between barriers; kernel 0 runs on the coordinating
	// goroutine so a 1-shard group has zero concurrency.
	bar    *senseBarrier
	sense0 uint32
	quit   bool
	closed bool
}

// NewShardGroup returns a coordinator over the given kernels. The lookahead
// must be positive: it is the guaranteed minimum virtual-time latency of any
// delivery the exchange injects, from the sending event to the arrival,
// and so the width of every window.
func NewShardGroup(kernels []*Kernel, lookahead Duration) *ShardGroup {
	if len(kernels) == 0 {
		panic("sim: ShardGroup needs at least one kernel")
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	n := len(kernels)
	g := &ShardGroup{
		kernels:   kernels,
		lookahead: lookahead,
		nexts:     make([]Time, n),
		has:       make([]bool, n),
		atStart:   make([]uint64, n),
	}
	if n > 1 {
		g.bar = newSenseBarrier(n)
		for i := 1; i < n; i++ {
			go g.worker(i)
		}
	}
	return g
}

// SetExchange installs the barrier exchange hook. It must be set before Run
// when any cross-shard channels exist. The hook receives the horizon every
// shard was just drained to (at Run entry, the last Run's): a delivery sent
// in a window leaves at or after the window's first event T and spends at
// least the lookahead in flight, so it arrives at or after T + lookahead,
// beyond the horizon T + lookahead − 1. One that does not exposes a horizon
// drawn too wide or a cable shorter than the lookahead.
func (g *ShardGroup) SetExchange(fn func(horizon Time) int) { g.exchange = fn }

// Windows reports how many windows have been executed. Unlike event
// execution order, the window count depends on the shard count and the
// lookahead: one kernel runs one window per Run, and a shorter lookahead
// means more barriers.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// Exchanged reports how many cross-shard deliveries have crossed barriers.
func (g *ShardGroup) Exchanged() uint64 { return g.exchanged }

// Busiest reports, summed over every window, the events executed by that
// window's busiest shard: the events the group runs one after another
// however many CPUs it has. Processed() / Busiest() is the speedup ceiling
// the partition leaves for the run — N when every window splits its work
// evenly across N shards, 1 when one shard runs everything.
func (g *ShardGroup) Busiest() uint64 { return g.busiest }

// Processed sums executed events across all kernels.
func (g *ShardGroup) Processed() uint64 {
	var n uint64
	for _, k := range g.kernels {
		n += k.Processed()
	}
	return n
}

// Pending sums pending events across all kernels.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, k := range g.kernels {
		n += k.Pending()
	}
	return n
}

// Now returns the maximum shard clock; after Run it is the shared time all
// shards were aligned to (the global last-event time when drained, limit
// otherwise).
func (g *ShardGroup) Now() Time {
	var t Time
	for _, k := range g.kernels {
		if k.Now() > t {
			t = k.Now()
		}
	}
	return t
}

// worker owns kernels[idx], draining it to the commanded horizon each
// window. Between the two barrier waits the worker has exclusive access to
// its kernel and its nexts/has slots.
func (g *ShardGroup) worker(idx int) {
	k := g.kernels[idx]
	var sense uint32
	for {
		g.bar.wait(&sense) // start: the horizon is published
		if g.quit {
			return
		}
		k.Drain(g.horizon)
		g.nexts[idx], g.has[idx] = k.PeekNext()
		g.bar.wait(&sense) // end: nexts are published
	}
}

// peekAll refreshes the cached next-event times from every kernel. Needed
// at Run entry and after an exchange injects events; between windows the
// cache is maintained incrementally at barrier exit.
func (g *ShardGroup) peekAll() {
	for i, k := range g.kernels {
		g.nexts[i], g.has[i] = k.PeekNext()
	}
}

// minNext returns the global minimum next-event time from the cache.
func (g *ShardGroup) minNext() (Time, bool) {
	var minT Time
	found := false
	for i := range g.kernels {
		if g.has[i] && (!found || g.nexts[i] < minT) {
			minT, found = g.nexts[i], true
		}
	}
	return minT, found
}

// runWindow drains every shard to the horizon, in parallel when the group
// has more than one shard, refreshes the next-event cache at barrier exit
// and adds the window's busiest shard to the ceiling counter.
func (g *ShardGroup) runWindow() {
	for i, k := range g.kernels {
		g.atStart[i] = k.Processed()
	}
	if g.bar != nil {
		g.bar.wait(&g.sense0) // start: release workers
	}
	k := g.kernels[0]
	k.Drain(g.horizon)
	g.nexts[0], g.has[0] = k.PeekNext()
	if g.bar != nil {
		g.bar.wait(&g.sense0) // end: collect workers
	}
	g.windows++
	var most uint64
	for i, k := range g.kernels {
		most = max(most, k.Processed()-g.atStart[i])
	}
	g.busiest += most
}

// Run executes windows until every shard drains or the global next-event
// time passes limit. It reports whether the group drained (quiesced); when
// false, pending events remain beyond limit. All shard clocks end at the
// same time: the global last-event time when drained, limit otherwise —
// either way a pure function of the traffic, independent of the partition.
// While Run executes, barrier waiters spin instead of parking; on return
// the idle workers park until the next Run or Close.
func (g *ShardGroup) Run(limit Time) bool {
	if g.closed {
		panic("sim: ShardGroup used after Close")
	}
	if g.bar != nil {
		g.bar.running.Store(true)
		defer g.bar.running.Store(false)
	}
	g.peekAll()
	for {
		if g.exchange != nil {
			if n := g.exchange(g.horizon); n > 0 {
				g.exchanged += uint64(n)
				g.peekAll()
			}
		}
		t, ok := g.minNext()
		if !ok {
			// Drained. Align the clocks so observers see one time.
			g.alignClocks(g.Now())
			return true
		}
		if t > limit {
			g.alignClocks(limit)
			return false
		}
		// One kernel has no peer to wait for: it runs to the limit.
		g.horizon = limit
		if len(g.kernels) > 1 {
			g.horizon = min(limit, t+g.lookahead-1)
		}
		g.runWindow()
	}
}

// alignClocks advances every shard clock to t without executing events
// (RunUntil on a kernel whose next event is beyond t only moves the clock).
func (g *ShardGroup) alignClocks(t Time) {
	for _, k := range g.kernels {
		if k.Now() < t {
			k.RunUntil(t)
		}
	}
}

// Close shuts down the worker goroutines. The group panics if used after.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	if g.bar != nil {
		g.quit = true
		g.bar.wait(&g.sense0)
	}
}
