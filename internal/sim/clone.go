package sim

import "fmt"

// This file is the kernel half of the snapshot/fork engine: a deep copy of
// the scheduler — timer wheel, heap fallback, current-slot buffer, clock,
// sequence counter, and random source — that a warmed simulation can be
// forked from without re-running warmup. The copy is read-only on the
// source, so many forks can be taken from one base concurrently (the chaos
// campaign's worker pool does exactly that).
//
// Cloning proceeds in three phases:
//
//  1. Kernel.Clone copies the scheduler structure. Every pending event is
//     duplicated and recorded in the Mapper's event table; the duplicates
//     still point at old-world args.
//  2. The model object graph clones itself (switches, links, hosts, ...).
//     Every model Clone has one shape: a struct copy (*x2 = *x), then
//     overrides for exactly what a fork must not share — the kernel and its
//     pool, owned slices and maps (deep copies), free lists and scratch
//     buffers (left empty), campaign-owned hooks (nil) and cross-references.
//     A clone registers its old→new pair with Mapper.Put, remaps stored
//     EventIDs through Mapper.MapEventID, and queues each cross-reference
//     with Rebind.
//  3. Mapper.Finish assigns every Rebind its counterpart, runs the Defer
//     fix-ups, then rewrites each cloned event's arg to its new-world
//     counterpart — via the object table, or via ArgClonable for composite
//     args (a pooled burst delivery, a wake pair) that are not themselves
//     part of the registered graph.
//
// Closure-form events (At/After) cannot be forked: a closure's captures are
// invisible, so there is no way to rebind them to the new world. Clone
// fails loudly if any non-canceled closure event is pending — the fork
// discipline is that everything scheduled across a snapshot rides the
// AtArg/AfterArg trampoline path. Events scheduled after the fork (fault
// plans, workloads) may use closures freely.
//
// Timers follow the same discipline: a Timer calls a static function with
// its owner as the argument, so the owner embeds it by value and forks it
// with Timer.CloneInto — a struct copy that substitutes the owner's clone
// and repoints the queued expiry — instead of registering it and allocating
// a rebound closure.
//
// A world that cannot be forked (an object whose counterpart or wiring has
// no new-world equivalent) is reported through Mapper.Fail and surfaces as
// Finish's error; clone code does not panic over it. The one panic left is
// Put's duplicate registration, which is a bug in the clone code itself.

// ArgClonable is implemented by event args that are not registered model
// objects but know how to produce a new-world copy of themselves: pooled
// delivery records, multi-object argument structs, and the like. CloneSimArg
// must not mutate the receiver (the old world keeps running). An arg that
// cannot cross the fork reports it with Mapper.Fail; what it returns then
// is discarded.
type ArgClonable interface {
	CloneSimArg(m *Mapper) any
}

// Mapper tracks old-world → new-world identity during a fork. One Mapper
// serves one fork; it is not safe for concurrent use.
type Mapper struct {
	k2       *Kernel
	objs     map[any]any
	events   map[*event]*event
	cloned   []event // the slab every new-world event is cut from
	rebinds  []rebind
	deferred []func()
	errs     []error
}

// rebind is one queued cross-reference: dst receives old's counterpart.
type rebind struct {
	dst slot
	old any
}

// slot is a typed destination for a counterpart. Its one implementation,
// ref, holds a single pointer, so it sits in the interface without
// allocating: queueing a rebind costs nothing beyond the queue.
type slot interface{ assign(v any) bool }

type ref[T any] struct{ p *T }

func (r ref[T]) assign(v any) bool {
	t, ok := v.(T)
	if ok {
		*r.p = t
	}
	return ok
}

func (r ref[T]) String() string { return fmt.Sprintf("%T", r.p)[1:] }

// Rebind queues the fix-up *dst = the fork's counterpart of old. It runs at
// Finish, after the whole object graph has registered, so clone order never
// matters. A counterpart that is missing, or is not a T, fails the fork.
// Rebind belongs to phase 2; an ArgClonable, which runs after the rebinds,
// looks its counterparts up directly.
func Rebind[T any](m *Mapper, dst *T, old T) {
	m.rebinds = append(m.rebinds, rebind{ref[T]{dst}, old})
}

// NewMapper returns an empty mapper. Pass it to Kernel.Clone first, then to
// the model clones, then call Finish.
func NewMapper() *Mapper { return NewMapperSize(0) }

// NewMapperSize returns an empty mapper whose object table is sized for
// objects registrations — what Objects reported after an earlier fork of
// the same world — so a fork's Puts never rehash, and whose Rebind queue
// has room for one cross-reference per two objects.
func NewMapperSize(objects int) *Mapper {
	return &Mapper{objs: make(map[any]any, objects), rebinds: make([]rebind, 0, objects/2)}
}

// Objects reports how many old→new pairs have been registered with Put.
func (m *Mapper) Objects() int { return len(m.objs) }

// Kernel returns the cloned kernel (nil before Kernel.Clone).
func (m *Mapper) Kernel() *Kernel { return m.k2 }

// Put registers a new-world counterpart for an old-world object. Registering
// the same object twice panics: it means two owners both cloned it, which
// would silently split shared state across the fork. That is an invariant
// of the clone code, not a property of the world being forked, so unlike
// the errors reported through Fail it is not recoverable.
func (m *Mapper) Put(old, new any) {
	if _, dup := m.objs[old]; dup {
		panic(fmt.Sprintf("sim: fork mapper: %T registered twice", old))
	}
	m.objs[old] = new
}

// Lookup returns the registered counterpart of old, if any.
func (m *Mapper) Lookup(old any) (any, bool) {
	v, ok := m.objs[old]
	return v, ok
}

// Defer queues a fix-up that does more than assign a counterpart (Rebind
// does that) to run at Finish, once every Rebind has been assigned.
func (m *Mapper) Defer(fn func()) { m.deferred = append(m.deferred, fn) }

// MapEventID translates an old-world EventID into the fork. A stale ID (its
// event already fired or was recycled) maps to the zero EventID, which
// Cancel treats as a no-op — exactly the semantics the stale ID had at home.
func (m *Mapper) MapEventID(id EventID) EventID {
	if id.ev == nil {
		return EventID{}
	}
	ev2, ok := m.events[id.ev]
	if !ok {
		return EventID{}
	}
	// Keep the caller's generation: a valid ID stays valid (the clone
	// copied the event's gen) and a stale one stays stale.
	return EventID{ev: ev2, gen: id.gen}
}

// Fail records that the world cannot be forked; Finish reports the first
// such error. Clone code calls it where it meets state with no new-world
// counterpart and carries on, so one pass collects the diagnosis.
func (m *Mapper) Fail(err error) { m.errs = append(m.errs, err) }

// resolveArg maps one event arg into the fork.
func (m *Mapper) resolveArg(a any) (any, error) {
	if a == nil {
		return nil, nil
	}
	if v, ok := m.objs[a]; ok {
		return v, nil
	}
	if c, ok := a.(ArgClonable); ok {
		return c.CloneSimArg(m), nil
	}
	return nil, fmt.Errorf("sim: fork: unresolved event arg of type %T", a)
}

// Finish runs the arg-resolution pass: every cloned event's arg is rewritten
// to its new-world counterpart. It returns the first error accumulated
// anywhere in the fork (pending closures, unregistered args, Fail).
func (m *Mapper) Finish() error {
	if len(m.errs) > 0 {
		return m.errs[0]
	}
	for _, r := range m.rebinds {
		if v, ok := m.objs[r.old]; !ok || !r.dst.assign(v) {
			return fmt.Errorf("sim: fork: a %v field refers to uncloned %T", r.dst, r.old)
		}
	}
	for _, fn := range m.deferred {
		fn()
	}
	for i := range m.cloned {
		ev := &m.cloned[i]
		if ev.tm != nil {
			// Timer.CloneInto has already pointed its timer's event — even
			// a canceled one: until it is harvested a Reset revives it — at
			// the clone. What still points into the old world was left
			// behind by a timer nobody cloned, or by a Reset that moved on
			// to a fresh event.
			switch {
			case ev.tm.k == m.k2:
			case ev.canceled:
				ev.tm, ev.arg = nil, nil
			default:
				return fmt.Errorf("sim: fork: pending expiry of a Timer that was not cloned (at %v)", ev.at)
			}
			continue
		}
		if ev.canceled || ev.afn == nil {
			continue
		}
		a, err := m.resolveArg(ev.arg)
		if err != nil {
			return err
		}
		ev.arg = a
	}
	if len(m.errs) > 0 {
		return m.errs[0] // a CloneSimArg failed
	}
	return nil
}

// cloneEvent duplicates one pending event into the fork. The duplicate's arg
// (and timer) still point into the old world until Finish rewrites them.
func (m *Mapper) cloneEvent(old *event) *event {
	m.cloned = m.cloned[:len(m.cloned)+1] // Clone sized the slab
	ev := &m.cloned[len(m.cloned)-1]
	*ev = *old
	ev.next = nil
	if old.fn != nil && !old.canceled {
		m.Fail(fmt.Errorf(
			"sim: fork: closure-form event pending at %v (seq %d); snapshot requires AtArg/AfterArg scheduling",
			old.at, old.seq))
	}
	m.events[old] = ev
	return ev
}

// Clone deep-copies the kernel into m and returns the fork. The source is
// not mutated, so concurrent Clones from one base are safe as long as the
// base itself is not running. Model state must be cloned separately (phase
// 2) and Mapper.Finish called before the fork is used. The Local slot is
// not copied: the fork starts with its own, empty, kernel-local state.
func (k *Kernel) Clone(m *Mapper) *Kernel {
	k2 := &Kernel{
		now:       k.now,
		seq:       k.seq,
		src:       k.src.clone(),
		processed: k.processed,
		bulked:    k.bulked,
		live:      k.live,
		c0:        k.c0,
		curPos:    k.curPos,
		inWheel:   k.inWheel,
		occ0:      k.occ0,
		occ1:      k.occ1,
		occ2:      k.occ2,
	}
	k2.rng = newRand(k2.src)
	// One slab and one map sizing for every queued event.
	n := k.Queued()
	m.cloned = make([]event, 0, n)
	m.events = make(map[*event]*event, n)
	k2.levels[0] = make([]*event, l0Slots)
	k2.levels[1] = make([]*event, l1Slots)
	k2.levels[2] = make([]*event, l2Slots)
	for lvl := range k.levels {
		for slot, chain := range k.levels[lvl] {
			if chain == nil {
				continue
			}
			// Preserve exact chain order: cascade and sweep walk the
			// chain head-first, and fire order within a slot is resolved
			// by sorting, but recycle order (hence pool reuse) follows
			// the chain.
			var head, tail *event
			for old := chain; old != nil; old = old.next {
				ev := m.cloneEvent(old)
				if head == nil {
					head, tail = ev, ev
				} else {
					tail.next = ev
					tail = ev
				}
			}
			k2.levels[lvl][slot] = head
		}
	}
	k2.queue = make(eventHeap, len(k.queue))
	for i, old := range k.queue {
		k2.queue[i] = m.cloneEvent(old)
	}
	k2.cur = make([]*event, len(k.cur))
	for i := k.curPos; i < len(k.cur); i++ {
		k2.cur[i] = m.cloneEvent(k.cur[i])
	}
	m.k2 = k2
	m.Put(k, k2)
	return k2
}
