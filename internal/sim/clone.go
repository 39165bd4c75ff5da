package sim

import "fmt"

// This file is the kernel half of the snapshot/fork engine: a deep copy of
// the scheduler — timer wheel, heap fallback, current-slot buffer, clock,
// sequence counter, and random source — that a warmed simulation can be
// forked from without re-running warmup. The copy is read-only on the
// source, so many forks can be taken from one base concurrently (the chaos
// campaign's worker pool does exactly that).
//
// A fork is a fork into a world: the objects one Mapper has made. The
// first fork of a base fills an empty world; every later fork through the
// same Mapper overwrites the same objects, keeping their backing arrays,
// maps, free lists, the kernel's event structs and its Local pools, so a
// steady-state fork allocates nothing and the trial it runs finds warm
// pools. The world's pools and free lists belong to the world, not to the
// fork: a fork never copies them from the base and never empties them.
//
// Cloning proceeds in three phases:
//
//  1. Kernel.Clone starts the fork. Into a used kernel it first hands every
//     queued event back to the kernel's free list (an ArgReclaimer arg
//     returns what it holds to its own pool first); then it copies the
//     base's scheduler. Every pending event is duplicated from the free
//     list and recorded in the Mapper's event table; the duplicates still
//     point at old-world args.
//  2. The model object graph clones itself (switches, links, hosts, ...).
//     Every model Clone has one shape: look up the counterpart (Counterpart
//     allocates it on the world's first fork), save what the world keeps —
//     backing arrays, maps, free lists — then struct-copy (*x2 = *x) and
//     refill the saved arrays and maps from the base (append(keep[:0],
//     x...); RefillMap), so every field comes from the base and nothing
//     the previous trial made survives. Then come the overrides for what a
//     fork must not share: the kernel and its pool, scratch buffers (left
//     empty), campaign-owned hooks (nil) and cross-references. A clone
//     remaps stored EventIDs through Mapper.MapEventID and queues each
//     cross-reference with Rebind.
//  3. Mapper.Finish assigns every Rebind its counterpart, runs the Fix
//     fix-ups, then rewrites each cloned event's arg to its new-world
//     counterpart — via the object table, or via ArgClonable for composite
//     args (a pooled burst delivery, a wake pair) that are not themselves
//     part of the registered graph.
//
// Closure-form events (At/After, whose arg is the closure) cannot be forked:
// a closure's captures are invisible, so there is no way to rebind them to
// the new world. Clone fails loudly if any non-canceled event with a func()
// arg is pending, before Finish would look that unhashable arg up — the fork
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
// a duplicate registration in one fork, which is a bug in the clone code
// itself.

// ArgClonable is implemented by event args that are not registered model
// objects but know how to produce a new-world copy of themselves: pooled
// delivery records, multi-object argument structs, and the like. CloneSimArg
// must not mutate the receiver (the old world keeps running). An arg that
// cannot cross the fork reports it with Mapper.Fail; what it returns then
// is discarded.
type ArgClonable interface {
	CloneSimArg(m *Mapper) any
}

// ArgReclaimer is implemented by event args that hold pooled resources — a
// burst delivery's buffer and record, a recycled wake or send record. When
// a fork reuses a kernel, ReclaimSimArg hands them back to the pools and
// free lists they came from before the pending event is dropped, so the
// world's pools do not leak what its last trial left in flight.
type ArgReclaimer interface {
	ReclaimSimArg()
}

// Mapper tracks old-world → new-world identity. It belongs to one world:
// its object table persists from fork to fork of one base — the base is
// read-only after warm-up, so the table stays valid — while its event
// table, Rebind and Fix queues and errors are emptied at the start of
// every fork without being freed. It is not safe for concurrent use.
type Mapper struct {
	k2     *Kernel
	objs   map[any]int32 // old object → its entry in ents
	ents   []counterpart
	gen    uint32 // the current fork; an entry of an earlier fork is stale
	events map[*event]*event
	cloned []*event // the events table's values, in clone order
	// rebinds and fixups are the fork's queued cross-references and
	// fix-ups, run in that order by Finish.
	rebinds []rebind
	fixups  []fixup
	errs    []error
}

// counterpart is one object's new-world copy and the fork that last
// registered it.
type counterpart struct {
	v   any
	gen uint32
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

// fixup is a fix-up that does more than assign a counterpart (see Fix).
type fixup struct {
	fn  func(any)
	arg any
}

// Fix queues fn(arg) to run at Finish, once every Rebind has been
// assigned. Like AtArg it captures nothing — fn is a package-level
// function and arg its receiver — so queueing one allocates nothing beyond
// the queue.
func (m *Mapper) Fix(fn func(any), arg any) { m.fixups = append(m.fixups, fixup{fn, arg}) }

// NewMapper returns the mapper of an empty world. Pass it to Kernel.Clone
// first, then to the model clones, then call Finish; pass it again to fork
// the same base into the same world.
func NewMapper() *Mapper { return &Mapper{objs: make(map[any]int32)} }

// Kernel returns the cloned kernel (nil before Kernel.Clone).
func (m *Mapper) Kernel() *Kernel { return m.k2 }

// Put registers a new-world counterpart for an old-world object, replacing
// the one an earlier fork registered. Registering the same object twice in
// one fork panics: it means two owners both cloned it, which would silently
// split shared state across the fork. That is an invariant of the clone
// code, not a property of the world being forked, so unlike the errors
// reported through Fail it is not recoverable.
func (m *Mapper) Put(old, new any) {
	if i, ok := m.objs[old]; ok {
		m.claim(old, i).v = new
		return
	}
	m.objs[old] = int32(len(m.ents))
	m.ents = append(m.ents, counterpart{new, m.gen})
}

// claim marks entry i, old's, as registered in the current fork.
func (m *Mapper) claim(old any, i int32) *counterpart {
	c := &m.ents[i]
	if c.gen == m.gen {
		panic(fmt.Sprintf("sim: fork mapper: %T registered twice", old))
	}
	c.gen = m.gen
	return c
}

// Counterpart registers and returns old's counterpart in the world: the
// object an earlier fork of the same base made, or a new zero T on the
// world's first fork. The caller overwrites every field of it from old.
// Like Put, registering old twice in one fork panics.
func Counterpart[T any](m *Mapper, old *T) *T {
	if i, ok := m.objs[old]; ok {
		return m.claim(old, i).v.(*T)
	}
	x := new(T)
	m.Put(old, x)
	return x
}

// Lookup returns the counterpart registered for old in the current fork,
// if any.
func (m *Mapper) Lookup(old any) (any, bool) {
	if i, ok := m.objs[old]; ok && m.ents[i].gen == m.gen {
		return m.ents[i].v, true
	}
	return nil, false
}

// Resize returns keep's backing array at length n, or a new array when keep
// is too short. The elements are stale: the caller overwrites every one.
func Resize[S ~[]E, E any](keep S, n int) S {
	if cap(keep) < n {
		return make(S, n)
	}
	return keep[:n]
}

// RefillMap returns a map holding exactly src's entries: keep, emptied,
// when the world already has one, else a new map (nil when src is nil).
func RefillMap[M ~map[K]V, K comparable, V any](keep, src M) M {
	if keep == nil {
		if src == nil {
			return nil
		}
		keep = make(M, len(src))
	}
	clear(keep)
	for k, v := range src {
		keep[k] = v
	}
	return keep
}

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
	if v, ok := m.Lookup(a); ok {
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
		if v, ok := m.Lookup(r.old); !ok || !r.dst.assign(v) {
			return fmt.Errorf("sim: fork: a %v field refers to uncloned %T", r.dst, r.old)
		}
	}
	for _, f := range m.fixups {
		f.fn(f.arg)
	}
	for _, ev := range m.cloned {
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
		if ev.canceled {
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

// cloneEvent duplicates one pending event into the fork, on a struct from
// the fork kernel's free list. The duplicate's arg (and timer) still point
// into the old world until Finish rewrites them.
func (m *Mapper) cloneEvent(old *event) *event {
	ev := m.k2.alloc()
	*ev = *old
	ev.next = nil
	if _, closure := old.arg.(func()); closure && !old.canceled {
		m.Fail(fmt.Errorf(
			"sim: fork: closure-form event pending at %v (seq %d); snapshot requires AtArg/AfterArg scheduling",
			old.at, old.seq))
	}
	m.events[old] = ev
	m.cloned = append(m.cloned, ev)
	return ev
}

// begin starts a fork through m: the previous fork's registrations go
// stale and its queues empty, keeping their storage.
func (m *Mapper) begin() {
	m.gen++
	if m.events == nil {
		m.events = make(map[*event]*event)
	}
	clear(m.events)
	clear(m.cloned)
	clear(m.rebinds)
	clear(m.fixups)
	clear(m.errs)
	m.cloned, m.rebinds, m.fixups, m.errs = m.cloned[:0], m.rebinds[:0], m.fixups[:0], m.errs[:0]
}

// reclaim empties a used kernel for a fork into it: every queued event
// returns to the free list, after an ArgReclaimer arg of a live one has
// handed back what it holds.
func (k *Kernel) reclaim() {
	drop := func(ev *event) {
		if a, ok := ev.arg.(ArgReclaimer); ok && !ev.canceled && ev.tm == nil {
			a.ReclaimSimArg()
		}
		k.recycle(ev)
	}
	for lvl := range k.levels {
		for slot, chain := range k.levels[lvl] {
			for ev := chain; ev != nil; {
				nx := ev.next
				drop(ev)
				ev = nx
			}
			k.levels[lvl][slot] = nil
		}
	}
	for _, ev := range k.queue {
		drop(ev)
	}
	for _, ev := range k.cur[k.curPos:] {
		drop(ev)
	}
	clear(k.queue)
	clear(k.cur)
}

// Clone copies the kernel into m's world and returns the world's kernel:
// a new one on the world's first fork, else the same kernel, emptied by
// reclaim, which keeps its event structs, its Local slot and the pools
// hanging there. The source is not mutated, so concurrent Clones from one
// base into different worlds are safe as long as the base itself is not
// running. Model state must be cloned separately (phase 2) and
// Mapper.Finish called before the fork is used. A first fork starts with
// an empty Local slot: kernel-local state describes the host's memory, not
// the simulated world.
func (k *Kernel) Clone(m *Mapper) *Kernel {
	m.begin()
	k2 := m.k2
	if k2 == nil {
		k2 = NewKernel(0) // its source takes k's state below
		m.k2 = k2
	} else {
		k2.reclaim()
	}
	// rng is k2's own and reads src, so copying the source's one word
	// clones the stream (rand.Rand keeps no other state the models use).
	*k2.src = *k.src
	k2.now, k2.seq, k2.processed, k2.bulked = k.now, k.seq, k.processed, k.bulked
	k2.stopped, k2.live, k2.bulk = false, k.live, Bulk{}
	k2.c0, k2.curPos, k2.inWheel = k.c0, k.curPos, k.inWheel
	k2.occ0, k2.occ1, k2.occ2 = k.occ0, k.occ1, k.occ2
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
	k2.queue = k2.queue[:0]
	for _, old := range k.queue {
		k2.queue = append(k2.queue, m.cloneEvent(old))
	}
	k2.cur = append(k2.cur[:0], make([]*event, len(k.cur))...)
	for i := k.curPos; i < len(k.cur); i++ {
		k2.cur[i] = m.cloneEvent(k.cur[i])
	}
	m.Put(k, k2)
	return k2
}
