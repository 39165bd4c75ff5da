package phy

import (
	"fmt"

	"netfi/internal/sim"
)

// Fork support (see sim/clone.go). A clone is a struct copy; what never
// crosses a fork is listed in the clone. A link is pure state plus one
// cross-reference — the receiver — which Rebind resolves at Finish so wiring
// order never matters. A pending burst delivery clones by copying its
// characters into a buffer drawn from the fork kernel's own pool: the old
// world will deliver (and possibly release) the original, so the fork must
// not alias it. Pools are per kernel (see pool.go) and belong to the world:
// a first fork starts with an empty one, a fork into a used world keeps its
// kernel's, with the deliveries its last trial left pending handed back
// (ReclaimSimArg). A fork never touches the base's free lists, and
// concurrent forks of one base share nothing but the mutex-guarded depot.

// CloneSimArg implements sim.ArgClonable for pending burst deliveries. A
// delivery to a receiver nobody cloned fails the fork.
func (d *delivery) CloneSimArg(m *sim.Mapper) any {
	dst, ok := m.Lookup(d.dst)
	if !ok {
		m.Fail(fmt.Errorf("phy: fork: delivery to uncloned receiver %T", d.dst))
		return nil
	}
	p := PoolOf(m.Kernel())
	chars := p.Get(len(d.chars))
	copy(chars, d.chars)
	return p.newDelivery(dst.(Receiver), chars)
}

// ReclaimSimArg implements sim.ArgReclaimer: a pending delivery of a world
// being forked into returns its buffer and its record to the pool.
func (d *delivery) ReclaimSimArg() {
	p := d.pool
	p.Release(d.chars)
	d.dst, d.chars = nil, nil
	d.next = p.free
	p.free = d
}

// Clone forks the link. The receiver rebinds at Mapper.Finish, so the
// object it points at may be cloned before or after the link itself.
// Channelized links (a DeliverySink installed) cannot fork: the sink closes
// over a shard outbox the mapper has no way to re-point, so the clone goes
// on without it and fails the fork.
func (l *Link) Clone(m *sim.Mapper) *Link {
	if l.sink != nil {
		m.Fail(fmt.Errorf("phy: fork: link %s has a delivery sink; channelized fabrics do not fork", l.name))
	}
	l2 := sim.Counterpart(m, l)
	*l2 = *l
	l2.k, l2.pool, l2.sink = m.Kernel(), PoolOf(m.Kernel()), nil
	sim.Rebind(m, &l2.dst, l.dst)
	return l2
}

// Clone forks both directions of the cable.
func (c *Cable) Clone(m *sim.Mapper) *Cable {
	c2 := sim.Counterpart(m, c)
	c2.LeftToRight, c2.RightToLeft = c.LeftToRight.Clone(m), c.RightToLeft.Clone(m)
	return c2
}
