package phy

import (
	"math/bits"
	"sync"

	"netfi/internal/sim"
)

// Burst-buffer and delivery pools. Every burst a link delivers is copied
// into a pooled buffer, and a pool only reclaims a buffer when its receiver
// explicitly hands it back — so a receiver that retains the slice (the
// documented legacy contract) is always safe: the buffer simply falls out
// of the pool and the garbage collector reclaims it as before.
//
// Ownership is per kernel. Each sim.Kernel carries one Pool in its Local
// slot: size-classed burst free lists plus the delivery-record free list,
// touched only by the goroutine driving that kernel and therefore free of
// locks, atomics and lookups. Links, link controllers and devices cache
// the *Pool at construction, so the delivery path Send -> ScheduleReceive
// -> deliverBurst -> Receive -> Release is plain field loads and slice
// operations while a kernel's lists cover its swing in buffers in flight.
//
// Behind the kernel pools sits the depot: mutex-guarded, process-global
// free lists of the same size classes. The package-level GetBurst /
// ReleaseBurst use it one buffer at a time (they have no kernel and may run
// on any goroutine). Kernel pools trade with it in batches, after Bonwick
// & Adams' magazine layer: a local miss takes up to tradeBatch buffers
// under one lock (allocating only when the depot is empty), and a release
// into a full list moves the top tradeBatch buffers back under one lock.
// A buffer taken on one side and released on the other therefore
// circulates through the depot instead of being allocated per round trip
// on one side and piling up on the other, and a flow that stays inside one
// kernel and under the cap never reaches it.
//
// The batches are for fabrics. Their transmitters run in phase, so every
// chunk period thousands of buffers leave each kernel's list and come
// back. With one-buffer trades that swing sent almost every Get and
// Release of a two-shard 128-switch flood to the depot, both shards
// contending for the same mutexes: 2.58 M locked operations for 3.4 M
// events. Batched, the same run makes about 90 k.
//
// Buffers are size-classed by power-of-two capacity. The free lists are
// plain slices rather than sync.Pool because Put-ing a slice into a
// sync.Pool boxes it (one allocation per release), which would defeat the
// zero-allocs-per-burst goal the regression tests pin.

const (
	minBurstBits = 4  // smallest pooled class: 16 characters
	maxBurstBits = 16 // largest pooled class: 65536 characters

	// localBurstCap bounds each kernel-local free list. A test bed's
	// swing in buffers in flight stays well under it, so campaign kernels
	// never leave their own lists; a large fabric swings thousands of
	// buffers per send period, far beyond it, and its kernels trade the
	// excess with the depot tradeBatch buffers at a time.
	localBurstCap = 64

	// tradeBatch is how many buffers a kernel pool moves per depot lock.
	// Half the cap leaves a list about half full after either trade, so a
	// kernel whose swing exceeds the cap trades once per tradeBatch
	// buffers in each direction, never back and forth per call.
	tradeBatch = localBurstCap / 2
)

// burstClassFor returns the size class serving a request for n characters,
// 0 < n <= 1<<maxBurstBits.
func burstClassFor(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2 n) for n > 1
	if c < minBurstBits {
		c = minBurstBits
	}
	return c
}

// releaseClass returns the size class a released buffer belongs to, or
// false when its capacity is not exactly one of the pooled powers of two.
func releaseClass(b []Character) (int, bool) {
	c := cap(b)
	if c < 1<<minBurstBits || c > 1<<maxBurstBits || c&(c-1) != 0 {
		return 0, false
	}
	return bits.Len(uint(c)) - 1, true
}

// depotClass is one size class of the shared depot. ops counts every get
// and put so tests can assert that a flow stayed kernel-local.
type depotClass struct {
	mu   sync.Mutex
	free [][]Character
	ops  uint64
}

var depot [maxBurstBits + 1]depotClass

// get returns a buffer of length n from the class, allocating when empty.
func (cl *depotClass) get(n, class int) []Character {
	cl.mu.Lock()
	cl.ops++
	if last := len(cl.free) - 1; last >= 0 {
		b := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]Character, n, 1<<class)
}

func (cl *depotClass) put(b []Character) {
	cl.mu.Lock()
	cl.ops++
	cl.free = append(cl.free, b[:0])
	cl.mu.Unlock()
}

// take moves up to tradeBatch buffers from the class onto list under one
// lock and returns the longer list, which is list itself when the class is
// empty.
func (cl *depotClass) take(list [][]Character) [][]Character {
	cl.mu.Lock()
	cl.ops++
	from := max(len(cl.free)-tradeBatch, 0)
	list = append(list, cl.free[from:]...)
	clear(cl.free[from:])
	cl.free = cl.free[:from]
	cl.mu.Unlock()
	return list
}

// give moves every buffer of list onto the class under one lock.
func (cl *depotClass) give(list [][]Character) {
	cl.mu.Lock()
	cl.ops++
	cl.free = append(cl.free, list...)
	cl.mu.Unlock()
}

// GetBurst returns a buffer of length n, recycled from the shared depot
// when one is available. The contents are unspecified; callers overwrite
// them. It is safe on any goroutine; code that runs on a kernel should use
// that kernel's Pool instead.
func GetBurst(n int) []Character {
	if n <= 0 {
		return nil
	}
	if n > 1<<maxBurstBits {
		return make([]Character, n)
	}
	c := burstClassFor(n)
	return depot[c].get(n, c)
}

// ReleaseBurst hands a burst to the shared depot. Callers must not touch
// the slice afterwards and must not release a buffer twice. Releasing is
// always optional — an unreleased buffer is collected by the GC. A slice
// whose capacity is not exactly a pooled power of two (16..65536) is
// ignored; any other slice is adopted whatever its origin, because a pooled
// buffer carries no mark, so release only delivered bursts and GetBurst
// results, never a slice something else still references.
func ReleaseBurst(b []Character) {
	if c, ok := releaseClass(b); ok {
		depot[c].put(b)
	}
}

// Pool is one kernel's burst and delivery pool. It is not safe for
// concurrent use: like the kernel, it belongs to whichever goroutine is
// driving the simulation (at a shard barrier, the coordinator).
type Pool struct {
	k      *sim.Kernel
	bursts [maxBurstBits + 1][][]Character
	free   *delivery
}

// PoolOf returns k's pool, attaching an empty one on first use. Construct-
// time code calls it once and keeps the result.
func PoolOf(k *sim.Kernel) *Pool {
	if p, ok := k.Local().(*Pool); ok {
		return p
	}
	p := &Pool{k: k}
	k.SetLocal(p)
	return p
}

// Get is GetBurst from the kernel's own free lists. A local miss refills
// the list with up to tradeBatch buffers from the depot under one lock and
// allocates only when the depot has none.
func (p *Pool) Get(n int) []Character {
	if n <= 0 {
		return nil
	}
	if n > 1<<maxBurstBits {
		return make([]Character, n)
	}
	c := burstClassFor(n)
	free := p.bursts[c]
	if len(free) == 0 {
		if free = depot[c].take(free); len(free) == 0 {
			return make([]Character, n, 1<<c)
		}
	}
	last := len(free) - 1
	b := free[last]
	free[last] = nil
	p.bursts[c] = free[:last]
	return b[:n]
}

// Release is ReleaseBurst into the kernel's own free lists, under the same
// contract. A list already holding localBurstCap buffers first moves its
// top tradeBatch buffers to the depot under one lock.
func (p *Pool) Release(b []Character) {
	c, ok := releaseClass(b)
	if !ok {
		return
	}
	free := p.bursts[c]
	if len(free) >= localBurstCap {
		depot[c].give(free[tradeBatch:])
		clear(free[tradeBatch:])
		free = free[:tradeBatch]
	}
	p.bursts[c] = append(free, b[:0])
}

// delivery carries one pending Receive call through the kernel without a
// closure. A delivery record is taken from the pool of the kernel it is
// scheduled on and returns there when it fires, so the records never cross
// kernels and need no depot.
type delivery struct {
	dst   Receiver
	chars []Character
	pool  *Pool
	next  *delivery
}

func (p *Pool) newDelivery(dst Receiver, chars []Character) *delivery {
	d := p.free
	if d != nil {
		p.free = d.next
		d.next = nil
	} else {
		d = &delivery{pool: p}
	}
	d.dst, d.chars = dst, chars
	return d
}

func deliverBurst(a any) {
	d := a.(*delivery)
	dst, chars := d.dst, d.chars
	d.dst, d.chars = nil, nil
	d.next = d.pool.free
	d.pool.free = d
	dst.Receive(chars)
}

// ScheduleReceive schedules dst.Receive(chars) on the pool's kernel at
// virtual time at, passing ownership of chars to the receiver. It is the
// allocation-free spelling of k.At(at, func() { dst.Receive(chars) }) and
// is exported so devices that forward pooled buffers (e.g. the injector's
// ports) can reuse it.
func (p *Pool) ScheduleReceive(at sim.Time, dst Receiver, chars []Character) sim.EventID {
	return p.k.AtArg(at, deliverBurst, p.newDelivery(dst, chars))
}

// ScheduleReceiveExt is ScheduleReceive for externally-ordered deliveries:
// the event carries the sending channel's (rank, seq) stamp so the kernel
// fires same-time deliveries in a partition-independent order (see
// sim.Kernel.AtExt). Used by the sharded fabric's exchange and DirectEnd
// paths.
func (p *Pool) ScheduleReceiveExt(at sim.Time, rank uint32, seq uint64, dst Receiver, chars []Character) sim.EventID {
	return p.k.AtExt(at, rank, seq, deliverBurst, p.newDelivery(dst, chars))
}

// ScheduleReceive is PoolOf(k).ScheduleReceive for callers that did not
// keep the pool.
func ScheduleReceive(k *sim.Kernel, at sim.Time, dst Receiver, chars []Character) sim.EventID {
	return PoolOf(k).ScheduleReceive(at, dst, chars)
}
