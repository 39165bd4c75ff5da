package phy

import (
	"fmt"
	"math"

	"netfi/internal/sim"
)

// Cross-shard delivery channels. A sharded fabric replaces a cross-shard
// cable's direct kernel scheduling — and every switch-to-switch trunk's,
// even one whose ends share a shard — with a ChannelEnd sink: the sending
// shard's link computes the arrival time as usual, but the burst is
// buffered in the sender's Outbox instead of entering a kernel. At each
// barrier the coordinator drains all outboxes with ExchangeSet.Exchange,
// which injects every buffered delivery into its destination kernel as an
// externally-ordered event (sim.Kernel.AtExt) stamped with the sending
// link's rank and per-link sequence.
//
// Determinism does not depend on injection order: the kernel fires events
// that share an arrival time in (external before local, then rank, then
// sequence) order, a total order carried by the events themselves. The
// execution order at every kernel is therefore a pure function of the
// traffic — not of which barrier a delivery happened to cross, nor of the
// partitioning — which is what makes an N-shard run byte-identical to a
// 1-shard run. Host cables whose ends share a shard (and every cable of a
// one-shard fabric) skip the buffering entirely via a DirectEnd, which
// schedules the same externally-ordered event immediately.

// DeliverySink receives a link's computed deliveries in place of the local
// kernel. Implementations either buffer them for a later exchange
// (ChannelEnd) or schedule them directly (DirectEnd).
type DeliverySink interface {
	Deliver(arrival sim.Time, dst Receiver, chars []Character)
}

// Delivery is one buffered cross-shard burst.
type Delivery struct {
	At    sim.Time
	Dst   Receiver
	Chars []Character
	Rank  uint32 // the sending link's global rank (unique per link)
	Seq   uint64 // per-link send sequence; (Rank, Seq) is unique
	Pool  *Pool  // the destination kernel's pool; schedules the delivery
}

// Outbox buffers deliveries originating from one shard between barriers.
// Only that shard's goroutine appends to it during a window; the barrier
// handoff publishes it to the coordinator.
type Outbox struct {
	pending []Delivery
	drains  int // non-empty drains so far in the current shrink epoch
	peak    int // largest drain in the current shrink epoch
}

// shrinkEpoch is the number of non-empty drains over which an outbox
// tracks its high-water mark before deciding whether to shrink.
const shrinkEpoch = 64

func (o *Outbox) push(d Delivery) { o.pending = append(o.pending, d) }

// drain injects the buffered deliveries into their destination kernels in
// buffer order, panicking on one that arrives at or before horizon (see
// ExchangeAfter), reports how many moved, clears the backing array's
// pointers for the garbage collector, and applies the shrink policy: a
// burst of traffic can balloon the array, so at the end of each epoch of
// shrinkEpoch drains whose largest drain used less than a quarter of the
// capacity, the array is recycled at half size. Judging an epoch by its
// high-water mark keeps a periodically bursty exchange at its burst size
// instead of shrinking between bursts and regrowing at the next one;
// steady-state exchanges stay allocation-free.
func (o *Outbox) drain(horizon sim.Time) int {
	n := len(o.pending)
	if n == 0 {
		return 0
	}
	for i := range o.pending {
		d := &o.pending[i]
		if d.At <= horizon {
			panic(fmt.Sprintf("phy: exchange: a delivery arriving at %v is not beyond the window horizon %v", d.At, horizon))
		}
		d.Pool.ScheduleReceiveExt(d.At, d.Rank, d.Seq, d.Dst, d.Chars)
	}
	clear(o.pending)
	o.pending = o.pending[:0]
	o.peak = max(o.peak, n)
	if o.drains++; o.drains == shrinkEpoch {
		if c := cap(o.pending); c >= 64 && o.peak < c/4 {
			o.pending = make([]Delivery, 0, c/2)
		}
		o.drains, o.peak = 0, 0
	}
	return n
}

// ChannelEnd is the DeliverySink for one direction of a cross-shard cable.
// It stamps each delivery with the link's rank and a monotone sequence and
// appends it to the sending shard's outbox, bound for the receiving shard's
// kernel.
type ChannelEnd struct {
	out  *Outbox
	dst  *Pool
	rank uint32
	seq  uint64
}

// NewChannelEnd returns a sink that buffers into out, injecting into dstK at
// exchange time. Rank must be unique across all channel ends of a fabric
// and assigned deterministically from topology alone.
func NewChannelEnd(out *Outbox, dstK *sim.Kernel, rank uint32) *ChannelEnd {
	return &ChannelEnd{out: out, dst: PoolOf(dstK), rank: rank}
}

// Deliver implements DeliverySink.
func (c *ChannelEnd) Deliver(arrival sim.Time, dst Receiver, chars []Character) {
	c.out.push(Delivery{
		At: arrival, Dst: dst, Chars: chars, Rank: c.rank, Seq: c.seq, Pool: c.dst,
	})
	c.seq++
}

// DirectEnd is the DeliverySink for one direction of a same-shard host
// cable in a sharded fabric (a one-shard fabric gives it to every cable).
// The delivery never leaves the shard, so it is scheduled into the local
// kernel immediately — but as the same externally-ordered event a barrier
// exchange would have produced, so execution order is identical to a run
// where the cable crossed shards.
type DirectEnd struct {
	pool *Pool
	rank uint32
	seq  uint64
}

// NewDirectEnd returns a sink that schedules into k directly. Rank shares
// the ChannelEnd rank space: unique per channel end, deterministic from
// topology alone.
func NewDirectEnd(k *sim.Kernel, rank uint32) *DirectEnd {
	return &DirectEnd{pool: PoolOf(k), rank: rank}
}

// Deliver implements DeliverySink.
func (d *DirectEnd) Deliver(arrival sim.Time, dst Receiver, chars []Character) {
	d.pool.ScheduleReceiveExt(arrival, d.rank, d.seq, dst, chars)
	d.seq++
}

// ExchangeSet owns one outbox per shard and drains them at barriers. A
// sharded fabric buffers every trunk hop, so most barriers find traffic
// waiting; an empty outbox costs its drain one length check.
type ExchangeSet struct {
	boxes []*Outbox
}

// NewExchangeSet returns a set with one empty outbox per shard.
func NewExchangeSet(shards int) *ExchangeSet {
	s := &ExchangeSet{boxes: make([]*Outbox, shards)}
	for i := range s.boxes {
		s.boxes[i] = &Outbox{}
	}
	return s
}

// Box returns shard i's outbox.
func (s *ExchangeSet) Box(i int) *Outbox { return s.boxes[i] }

// Exchange drains every outbox in box order, injecting all buffered
// deliveries into their destination kernels, and reports how many
// deliveries moved. It must run at a barrier, with every shard quiescent —
// it draws each delivery record from the destination kernel's pool — and
// every delivery's arrival must be at or after its destination kernel's
// clock (the conservative window horizon guarantees this; the kernel
// panics otherwise). Injection needs no sort: the (rank, seq) stamps order
// the events inside each kernel.
func (s *ExchangeSet) Exchange() int { return s.ExchangeAfter(math.MinInt64) }

// ExchangeAfter is Exchange at a sim.ShardGroup barrier, the group's
// exchange hook: horizon is the time every shard was just drained to. Every
// delivery a window sends arrives after its horizon (see
// sim.ShardGroup.SetExchange), so one arriving at or before it panics — an
// invariant of the window arithmetic, not a property of the traffic. It
// costs one comparison per delivery.
func (s *ExchangeSet) ExchangeAfter(horizon sim.Time) int {
	n := 0
	for _, b := range s.boxes {
		n += b.drain(horizon)
	}
	return n
}
