// Package sim provides a deterministic discrete-event simulation kernel.
//
// All network, host, and injector models in this repository are driven by a
// single Kernel per simulation. The kernel keeps a virtual clock with
// picosecond resolution (so the 12.5 ns Myrinet character period at 80 MB/s
// is exactly representable), a scheduler of pending events, and a seeded
// random source. Two runs with the same seed and the same model code produce
// byte-identical traces: event ties are broken by insertion order, and no
// global mutable state is used.
//
// The scheduler is a hierarchical timer wheel (three levels, 16.4 ns ticks,
// ~17 ms horizon) for the short-horizon character-period events that dominate
// a simulation, with a binary-heap fallback for long timers; the two are
// merged front against front on every pop, heap events never move into the
// wheel. One occupancy bit per wheel slot lets the harvest frontier jump
// straight to the next slot that holds something, however sparse the wheel.
// Events are recycled through a free list, and the AtArg/AfterArg variants
// schedule a callback without a per-call closure allocation, so the
// steady-state event path does not allocate. A Timer keeps one queued event
// however often it is re-armed; the queue moves that event to the timer's
// current deadline when it reaches the front (see settle). Fire order is
// exactly (time, insertion sequence) — identical to a plain priority queue
// with cancel-and-reschedule timers, as the equivalence tests pin down.
//
// A train is a periodic event its owner schedules occurrence by occurrence
// with AfterTrain. Step, PeekNext, Pending and Clone see each occurrence as
// an event; Drain, RunUntil and Run first offer the owner a Bulk, in which it
// may apply every steady period that ends before the next real event in one
// call. Processed, Now and the sequence counter then read exactly as if each
// occurrence had fired, so fire order is unchanged (see train.go).
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
)

// Time is a point in virtual time, in picoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in picoseconds.
type Duration = Time

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1_000
	Microsecond Duration = 1_000_000
	Millisecond Duration = 1_000_000_000
	Second      Duration = 1_000_000_000_000
)

// Nanoseconds reports t as a floating-point count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a floating-point count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "12.5ns" or "50ms".
func (t Time) String() string { return string(t.Append(nil)) }

// Append appends the String rendering of t to b: picoseconds as an integer,
// larger times to three decimals of the largest unit they reach, trailing
// zeros and a trailing dot trimmed.
func (t Time) Append(b []byte) []byte {
	switch {
	case t < 0:
		return (-t).Append(append(b, '-'))
	case t < Nanosecond:
		return append(strconv.AppendInt(b, int64(t), 10), "ps"...)
	case t < Microsecond:
		return appendTrimmed(b, float64(t)/float64(Nanosecond), "ns")
	case t < Millisecond:
		return appendTrimmed(b, float64(t)/float64(Microsecond), "us")
	case t < Second:
		return appendTrimmed(b, float64(t)/float64(Millisecond), "ms")
	default:
		return appendTrimmed(b, float64(t)/float64(Second), "s")
	}
}

// appendTrimmed appends v to three decimals, trailing zeros and a trailing
// dot trimmed, then unit.
func appendTrimmed(b []byte, v float64, unit string) []byte {
	from := len(b)
	b = strconv.AppendFloat(b, v, 'f', 3, 64)
	for len(b) > from && b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	if len(b) > from && b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	return append(b, unit...)
}

// event is a scheduled callback. Events are pooled: fired and harvested-
// canceled events return to a kernel-local free list, and gen distinguishes
// the lifetimes so a stale EventID (for example a Cancel after the event
// already fired) cannot touch a recycled slot.
type event struct {
	at  Time
	seq uint64 // insertion order; breaks ties deterministically

	fn  func(any) // called with arg; At/After pass their closure as arg
	arg any

	// tm is set on a Timer's expiry event. The timer may have been re-armed
	// since the event was queued, in which case (at, seq) is only where the
	// event waits and the timer holds where it fires; see settle.
	tm *Timer

	// Externally ordered events (AtExt) carry their own tie-break key in
	// place of the insertion sequence: at equal timestamps they fire
	// before every locally scheduled event, ordered among themselves by
	// (xrank, xseq). Shard coordinators use this so a cross-shard
	// delivery's fire position is a pure function of the traffic — not of
	// when the barrier that injected it happened to run.
	ext      bool
	canceled bool
	train    bool // an AfterTrain occurrence: offered to its owner in bulk
	xrank    uint32
	xseq     uint64

	gen uint64

	next *event // wheel slot chain or free-list link; stale anywhere else
}

// eventLess is the kernel's total fire order: time first, then external
// events before local ones, then (xrank, xseq) among externals and the
// insertion sequence among locals. Every queue structure (wheel slot sort,
// current-slot insert, heap, wheel-vs-heap merge) must use exactly this
// comparison or same-tick events would fire in structure-dependent order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ext != b.ext {
		return a.ext
	}
	if a.ext {
		if a.xrank != b.xrank {
			return a.xrank < b.xrank
		}
		return a.xseq < b.xseq
	}
	return a.seq < b.seq
}

// EventID identifies a scheduled event so it can be canceled.
type EventID struct {
	ev  *event
	gen uint64
}

// eventHeap orders events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Timer-wheel geometry. One level-0 tick is 2^14 ps ≈ 16.4 ns — about 1.3
// Myrinet character periods — so the per-character delivery events that
// dominate a campaign land in level 0. The three levels together cover a
// 2^34 ps ≈ 17.2 ms horizon (flow-control refreshes, injector pipeline
// flushes, burst periods); anything farther out (watchdogs, mapping rounds,
// message gaps) takes the heap fallback.
const (
	tickBits = 14
	l0Bits   = 8 // 256 slots × 16.4 ns  ≈ 4.3 us
	l1Bits   = 6 // 64 slots  × 4.3 us   ≈ 275 us
	l2Bits   = 6 // 64 slots  × 275 us   ≈ 17.6 ms

	l0Slots = 1 << l0Bits
	l1Slots = 1 << l1Bits
	l2Slots = 1 << l2Bits
)

// Kernel is a deterministic discrete-event scheduler.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now       Time
	seq       uint64
	src       *prng
	rng       *rand.Rand
	processed uint64
	bulked    uint64 // of processed, the events trains applied in bulk
	stopped   bool
	live      int // scheduled, not yet fired, not canceled

	// Heap fallback: events beyond the wheel horizon, in exact order.
	queue eventHeap

	// Timer wheel. c0 is the harvest frontier: the next absolute level-0
	// tick to be swept. cur holds the harvested events of the frontier
	// slot, sorted by (at, seq); curPos is the consume cursor into it.
	// occ0/occ1/occ2 hold one bit per slot of levels 0/1/2, set while the
	// slot's chain is non-empty; inWheel counts the events chained in all
	// three levels, canceled ones included.
	levels  [3][]*event
	occ0    [l0Slots / 64]uint64
	occ1    uint64
	occ2    uint64
	inWheel int
	c0      uint64
	cur     []*event
	curPos  int

	free *event // recycled event structs

	// bulk is the offer a train's owner receives (see Bulk); kept here so
	// making it allocates nothing.
	bulk Bulk

	// local is the kernel's single attachment slot; see Local.
	local any
}

// NewKernel returns a kernel with its clock at zero and a random source
// seeded with seed.
func NewKernel(seed int64) *Kernel {
	src := &prng{}
	src.Seed(seed)
	k := &Kernel{src: src, rng: newRand(src)}
	k.levels[0] = make([]*event, l0Slots)
	k.levels[1] = make([]*event, l1Slots)
	k.levels[2] = make([]*event, l2Slots)
	return k
}

func newRand(src *prng) *rand.Rand { return rand.New(src) }

// prng is the kernel's random source: splitmix64, chosen over the stdlib
// default source because its entire state is one word the fork engine can
// copy. rand.Rand itself keeps no hidden state on the integer paths the
// models use, so cloning the source clones the stream.
type prng struct{ s uint64 }

// Seed implements rand.Source.
func (p *prng) Seed(seed int64) { p.s = uint64(seed) }

// Uint64 implements rand.Source64 (splitmix64).
func (p *prng) Uint64() uint64 {
	z := SplitMix64(p.s)
	p.s += splitMixGamma
	return z
}

// splitMixGamma is splitmix64's state increment.
const splitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 is one splitmix64 step: the output for state x, whose next
// state is x + 0x9e3779b97f4a7c15. The kernel's source draws from it, and
// the fabric's counter-based streams hash their coordinates through it.
func SplitMix64(x uint64) uint64 {
	x += splitMixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 implements rand.Source.
func (p *prng) Int63() int64 { return int64(p.Uint64() >> 1) }

// Local returns the value stored with SetLocal, or nil. The slot lets one
// layer above sim keep kernel-scoped state — phy hangs its burst and
// delivery pools here — without sim importing it and without a global map
// from kernels to state. It is touched only by the goroutine that currently
// drives the kernel. A Clone does not copy it — kernel-local state
// describes the host's memory, not the simulated world — so a first fork
// starts with it empty and a fork into a used kernel keeps the kernel's.
func (k *Kernel) Local() any { return k.local }

// SetLocal fills the attachment slot. The slot has a single owner (phy);
// nothing else may store to it.
func (k *Kernel) SetLocal(v any) { k.local = v }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed reports how many events have been executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Bulked reports how many of the Processed events trains applied in bulk
// (see Bulk) rather than fired one at a time.
func (k *Kernel) Bulked() uint64 { return k.bulked }

// Pending reports how many events are scheduled and not yet executed.
func (k *Kernel) Pending() int { return k.live }

// Queued reports how many event structs the scheduler holds: the pending
// events plus canceled ones not yet harvested. A fork copies every one of
// them, so this is the kernel's share of a Clone's cost.
func (k *Kernel) Queued() int {
	return k.inWheel + len(k.queue) + len(k.cur) - k.curPos
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a model bug, and silently reordering time would make
// every downstream result wrong. The event is AtArg's, with fn as the
// argument of the callClosure trampoline NewTimer uses; a fork refuses it
// while it is pending (see Mapper), as fn's captures cannot be rebound.
func (k *Kernel) At(t Time, fn func()) EventID {
	return k.AtArg(t, callClosure, fn)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.AtArg(k.now+d, callClosure, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. Unlike At, the
// callback captures nothing: callers on hot paths pass a reused callee and
// its receiver, so scheduling allocates no closure — with the event pool,
// nothing at all in steady state.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) EventID {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	ev := k.alloc()
	ev.at = t
	ev.seq = k.seq
	ev.fn, ev.arg = fn, arg
	k.seq++
	k.live++
	k.place(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// AfterArg schedules fn(arg) to run d after the current time; see AtArg.
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.AtArg(k.now+d, fn, arg)
}

// AtExt schedules an externally ordered event: at time t it fires before
// every locally scheduled event with the same timestamp, and external events
// at equal times fire in (rank, xseq) order regardless of the order or the
// moment they were scheduled. (rank, xseq) must be unique per pending
// external event at any timestamp. Sharded fabrics schedule cross- and
// same-shard deliveries this way, which is what lets the barrier schedule
// change (the shard count, and so the window cuts) without changing the
// execution order.
func (k *Kernel) AtExt(t Time, rank uint32, xseq uint64, fn func(any), arg any) EventID {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	ev := k.alloc()
	ev.at = t
	ev.seq = k.seq
	ev.ext, ev.xrank, ev.xseq = true, rank, xseq
	ev.fn, ev.arg = fn, arg
	k.seq++
	k.live++
	k.place(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// place routes an event to its wheel slot, the current-slot buffer, or the
// long-timer heap. Placement never affects fire order — only where the event
// waits — so the only invariant is that a slot is swept no later than its
// events fall due; the level tests below guarantee it because a level-L slot
// cascades exactly when the frontier reaches its first level-0 tick.
func (k *Kernel) place(ev *event) {
	t0 := uint64(ev.at) >> tickBits
	if k.inWheel == 0 {
		// Idle wheel: snap the frontier over the gap so a long-idle
		// simulation does not sweep empty slots to catch up.
		if nowTick := uint64(k.now) >> tickBits; nowTick > k.c0 {
			k.c0 = nowTick
		}
	}
	switch {
	case t0 < k.c0:
		// The frontier already swept this tick (the clock sits inside
		// it): the event joins the sorted current-slot buffer.
		k.insertCur(ev)
	case t0-k.c0 < l0Slots:
		k.push(0, int(t0&(l0Slots-1)), ev)
	case t0>>l0Bits-k.c0>>l0Bits < l1Slots:
		k.push(1, int(t0>>l0Bits&(l1Slots-1)), ev)
	case t0>>(l0Bits+l1Bits)-k.c0>>(l0Bits+l1Bits) < l2Slots:
		k.push(2, int(t0>>(l0Bits+l1Bits)&(l2Slots-1)), ev)
	default:
		heap.Push(&k.queue, ev)
	}
}

func (k *Kernel) push(level, slot int, ev *event) {
	ev.next = k.levels[level][slot]
	k.levels[level][slot] = ev
	k.inWheel++
	switch level {
	case 0:
		k.occ0[slot>>6] |= 1 << (slot & 63)
	case 1:
		k.occ1 |= 1 << slot
	default:
		k.occ2 |= 1 << slot
	}
}

// insertCur inserts ev into the unconsumed tail of the current-slot buffer,
// keeping it sorted in fire order.
func (k *Kernel) insertCur(ev *event) {
	cur := k.cur
	lo, hi := k.curPos, len(cur)
	for lo < hi {
		mid := (lo + hi) / 2
		if eventLess(cur[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k.cur = append(cur, nil)
	copy(k.cur[lo+1:], k.cur[lo:])
	k.cur[lo] = ev
}

// Cancel prevents a scheduled event from running. Canceling an event that
// already ran, or was already canceled, is a no-op: the generation check
// makes a stale EventID harmless even after its struct has been recycled.
func (k *Kernel) Cancel(id EventID) {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.canceled {
		return
	}
	ev.canceled = true
	k.live--
}

// alloc takes an event struct off the free list, growing it in blocks.
func (k *Kernel) alloc() *event {
	if k.free == nil {
		block := make([]event, 64)
		for i := range block {
			block[i].next = k.free
			k.free = &block[i]
		}
	}
	ev := k.free
	k.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a fired or canceled event to the free list. The
// generation bump invalidates every outstanding EventID for it.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.arg, ev.tm = nil, nil, nil
	ev.ext, ev.xrank, ev.xseq = false, 0, 0
	ev.canceled, ev.train = false, false
	ev.next = k.free
	k.free = ev
}

// settle reports whether ev waits where it fires. A Timer re-armed while its
// event is queued leaves the event where it is and records the new deadline
// and sequence number on itself; when such an event reaches the front of the
// wheel or the heap (or cascades), settle gives it its timer's (deadline,
// seq) and the caller places it again. Like pruning a canceled front this
// runs no callback and moves neither the clock nor a counter, and because a
// re-armed event only ever waits at or before its fire position, no event
// can fire ahead of one that has not settled yet.
func (ev *event) settle() bool {
	tm := ev.tm
	if tm == nil || ev.seq == tm.seq {
		return true
	}
	ev.at, ev.seq = tm.deadline, tm.seq
	return false
}

// wheelFront returns the earliest live wheel event without consuming it,
// sweeping the frontier forward (pruning canceled events and re-placing
// re-armed timers) as needed. Sweeping never advances the clock, so it is
// safe from peek paths too.
func (k *Kernel) wheelFront() *event {
	for {
		for k.curPos < len(k.cur) {
			ev := k.cur[k.curPos]
			if !ev.canceled && ev.settle() {
				return ev
			}
			k.cur[k.curPos] = nil
			k.curPos++
			if ev.canceled {
				k.recycle(ev)
			} else {
				k.place(ev)
			}
		}
		k.cur = k.cur[:0]
		k.curPos = 0
		if k.inWheel == 0 {
			return nil
		}
		k.sweep()
	}
}

// nextL0 returns how many slots lie between level-0 slot p and the first
// occupied level-0 slot at or after it, going round the wheel; -1 when level
// 0 is empty.
func (k *Kernel) nextL0(p uint64) int {
	const words = uint64(len(k.occ0))
	w, b := p>>6, p&63
	if m := k.occ0[w] >> b; m != 0 {
		return bits.TrailingZeros64(m)
	}
	// The following words in turn, ending back in the first one, where by
	// now only slots before p can be occupied.
	d := 64 - int(b)
	for i := uint64(1); i <= words; i++ {
		if m := k.occ0[(w+i)%words]; m != 0 {
			return d + bits.TrailingZeros64(m)
		}
		d += 64
	}
	return -1
}

// nextCascade returns the first tick at or after c at which an occupied slot
// of a 64-slot higher level cascades: slot i of a level whose slots span
// 2^shift ticks cascades when the frontier reaches a tick i<<shift (mod the
// level's span). occ must be non-zero.
func nextCascade(occ uint64, c uint64, shift uint) uint64 {
	first := (c + 1<<shift - 1) >> shift // first slot boundary not behind c
	return (first + uint64(bits.TrailingZeros64(bits.RotateLeft64(occ, -int(first&63))))) << shift
}

// sweep advances the frontier until it has harvested one level-0 slot's
// events into cur. The occupancy words name the next tick that holds either
// a level-0 chain or a due level-1/2 cascade, so the frontier jumps there
// rather than stepping over empty slots.
func (k *Kernel) sweep() {
	for k.inWheel > 0 {
		next := ^uint64(0)
		if d := k.nextL0(k.c0 & (l0Slots - 1)); d >= 0 {
			next = k.c0 + uint64(d)
		}
		// Cascades happen on level-1 slot boundaries only; a level-0 chain
		// before the next boundary comes first whatever the levels hold.
		if next >= (k.c0+l0Slots-1)&^(l0Slots-1) {
			if k.occ1 != 0 {
				next = min(next, nextCascade(k.occ1, k.c0, l0Bits))
			}
			if k.occ2 != 0 {
				next = min(next, nextCascade(k.occ2, k.c0, l0Bits+l1Bits))
			}
		}
		k.c0 = next
		if next&(l0Slots-1) == 0 {
			// Entering a new level-1 slot; at a level-2 boundary the
			// level-2 slot cascades first so its events reach level 1
			// before that level's own cascade runs.
			if s := next >> (l0Bits + l1Bits) & (l2Slots - 1); next&(1<<(l0Bits+l1Bits)-1) == 0 && k.occ2>>s&1 != 0 {
				k.occ2 &^= 1 << s
				k.cascade(2, int(s))
			}
			if s := next >> l0Bits & (l1Slots - 1); k.occ1>>s&1 != 0 {
				k.occ1 &^= 1 << s
				k.cascade(1, int(s))
			}
		}
		slot := next & (l0Slots - 1)
		if k.occ0[slot>>6]>>(slot&63)&1 == 0 {
			continue // came for a cascade; it may have filled earlier slots
		}
		k.occ0[slot>>6] &^= 1 << (slot & 63)
		k.c0 = next + 1
		chain := k.levels[0][slot]
		k.levels[0][slot] = nil
		for ev := chain; ev != nil; {
			nx := ev.next
			k.inWheel--
			if ev.canceled {
				k.recycle(ev)
			} else {
				k.cur = append(k.cur, ev)
			}
			ev = nx
		}
		if len(k.cur) > 0 {
			if len(k.cur) > 1 {
				slices.SortFunc(k.cur, cmpEvent)
			}
			return
		}
		// The slot held only canceled events; keep sweeping.
	}
}

func cmpEvent(a, b *event) int {
	if eventLess(a, b) {
		return -1
	}
	return 1
}

// cascade redistributes one higher-level slot down the wheel.
func (k *Kernel) cascade(level, slot int) {
	chain := k.levels[level][slot]
	k.levels[level][slot] = nil
	for ev := chain; ev != nil; {
		nx := ev.next
		k.inWheel--
		if ev.canceled {
			k.recycle(ev)
		} else {
			// A re-armed timer goes straight to where it fires, which
			// is usually back up the wheel: a watchdog that keeps being
			// petted never descends to level 0.
			ev.settle()
			k.place(ev)
		}
		ev = nx
	}
}

// heapFront returns the earliest live heap event, pruning canceled tops and
// re-placing re-armed timers (into the wheel, if their deadline is within
// its horizon by now).
func (k *Kernel) heapFront() *event {
	for len(k.queue) > 0 {
		ev := k.queue[0]
		if !ev.canceled && ev.settle() {
			return ev
		}
		heap.Pop(&k.queue)
		if ev.canceled {
			k.recycle(ev)
		} else {
			k.place(ev)
		}
	}
	return nil
}

// front returns the globally earliest live event without removing it, and
// whether it sits in the heap rather than the wheel; nil when nothing is
// pending. It is the one queue inspection behind every pop and peek.
func (k *Kernel) front() (ev *event, inHeap bool) {
	// Heap first: settling its top can put an event into the wheel, while
	// settling the wheel's front only ever adds settled events to the heap.
	k.heapFront()
	wf := k.wheelFront()
	if len(k.queue) > 0 {
		if hf := k.queue[0]; wf == nil || eventLess(hf, wf) {
			return hf, true
		}
	}
	return wf, false
}

// maxTime is the end of virtual time.
const maxTime = Time(1<<63 - 1)

// pop removes the event front just returned.
func (k *Kernel) pop(inHeap bool) {
	if inHeap {
		heap.Pop(&k.queue)
	} else {
		k.cur[k.curPos] = nil
		k.curPos++
	}
}

// step executes the earliest pending event if it is due at or before limit,
// and reports whether it did. With bulk set, a train's occurrence is first
// offered to its owner, who may apply a run of its periods instead (see
// Bulk); that counts as one step.
func (k *Kernel) step(limit Time, bulk bool) bool {
	ev, inHeap := k.front()
	if ev == nil || ev.at > limit {
		return false
	}
	k.pop(inHeap)
	if bulk && ev.train && k.bulkStep(ev, limit) {
		return true
	}
	k.now = ev.at
	k.processed++
	k.live--
	fn, arg := ev.fn, ev.arg
	k.recycle(ev) // before the call, so the callback can reuse the struct
	fn(arg)
	return true
}

// Step executes the single earliest pending event — one occurrence of a
// train, never a run of them. It reports false when no events remain.
func (k *Kernel) Step() bool { return k.step(maxTime, false) }

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.step(maxTime, true) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled after t remain pending.
func (k *Kernel) RunUntil(t Time) {
	k.Drain(t)
	if k.now < t {
		k.now = t
	}
}

// Drain executes events with timestamps <= t like RunUntil, but leaves the
// clock at the last executed event instead of forcing it to t. Shard
// coordinators run windows with Drain so a kernel's clock tracks its real
// activity: the group's observable time stays the time of the last executed
// event — a pure function of the traffic — rather than the horizon of the
// last window, which depends on the partition.
func (k *Kernel) Drain(t Time) {
	k.stopped = false
	for !k.stopped && k.step(t, true) {
	}
}

// RunFor executes events for a span d of virtual time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now + d) }

// Stop makes the innermost Run/RunUntil return after the current event.
func (k *Kernel) Stop() { k.stopped = true }

// PeekNext reports the timestamp of the earliest pending event without
// executing it. The second result is false when no events are pending.
// Shard coordinators use this to compute the global minimum next-event time
// that anchors each conservative-lookahead window.
func (k *Kernel) PeekNext() (Time, bool) {
	ev, _ := k.front()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
