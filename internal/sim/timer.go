package sim

// Timer is a resettable one-shot timeout bound to a kernel, modeled after the
// watchdog counters in Myrinet interfaces: every received symbol resets the
// short-period counter, and expiry fires a recovery action.
//
// A timer owns at most one queued kernel event. Petting it while that event
// is still queued does not cancel and reschedule: Reset records the new
// deadline and draws the sequence number a reschedule would have drawn, and
// the kernel moves the event there when it reaches the front of the queue
// (event.settle). Fire times, tie-breaks, Pending, Processed and PeekNext
// are those of cancel-and-reschedule; what differs is that a watchdog petted
// once per character leaves one event in the queue, not one canceled event
// per pet for the wheel to carry, every fork to copy and the sweep to bury.
//
// A timer is bound to its owner, not to a closure: on expiry it calls a
// static fn with the owner as its argument — the AtArg trampoline form — so
// an owner can embed its timers by value and a fork rebinds them by copying
// the struct and substituting the owner's clone (CloneInto), with nothing
// allocated per timer.
//
// The zero value is not usable; bind it with Init or construct with NewTimer.
type Timer struct {
	k       *Kernel
	d       Duration
	fn      func(any)
	owner   any
	pending EventID // the owned event; stale once it fired or was harvested
	armed   bool
	fires   uint64

	// Where the owned event fires, as opposed to where it waits.
	deadline Time
	seq      uint64
}

// Init binds t — typically a field of owner — to k: when d elapses without a
// Reset, fn(owner) runs. fn should be a package-level function, so the timer
// holds nothing but the owner for a fork to remap. The timer starts
// disarmed; Init discards any previous binding. A negative period panics.
func (t *Timer) Init(k *Kernel, d Duration, fn func(any), owner any) {
	if d < 0 {
		panic("sim: Timer period must not be negative")
	}
	*t = Timer{k: k, d: d, fn: fn, owner: owner}
}

// NewTimer returns a free-standing timer that invokes fn when d elapses
// without a Reset: an Init-bound timer whose owner is the closure itself.
func NewTimer(k *Kernel, d Duration, fn func()) *Timer {
	t := new(Timer)
	t.Init(k, d, callClosure, fn)
	return t
}

func callClosure(a any) { a.(func())() }

// Bound reports whether the timer has been bound to a kernel. An owner that
// embeds a timer it binds only on demand tests this where it would test a
// pointer for nil.
func (t *Timer) Bound() bool { return t.k != nil }

// Reset (re)arms the timer for a full period from now. Re-arming neither
// allocates nor touches the queue while the timer's event is still in it:
// watchdog pets happen per received character.
func (t *Timer) Reset() {
	k := t.k
	deadline := k.now + t.d
	ev := t.pending.ev
	if ev == nil || ev.gen != t.pending.gen || ev.at > deadline {
		// No queued event, or (after SetPeriod shortened the period) one
		// that waits past the new deadline and cannot move earlier in
		// place: cancel and schedule.
		t.Stop()
		t.pending = k.AfterArg(t.d, timerExpire, t)
		ev = t.pending.ev
		ev.tm = t
		t.armed, t.deadline, t.seq = true, ev.at, ev.seq
		return
	}
	// The event is still queued — armed, or parked by Stop and not yet
	// harvested — no later than the new deadline: keep it, and spend the
	// sequence number a reschedule would have spent so that every later
	// same-time tie breaks as it always did.
	if ev.canceled {
		ev.canceled = false
		k.live++
	}
	t.armed, t.deadline, t.seq = true, deadline, k.seq
	k.seq++
}

func timerExpire(a any) {
	t := a.(*Timer)
	t.armed = false
	t.fires++
	t.fn(t.owner)
}

// Stop disarms the timer without firing.
func (t *Timer) Stop() {
	if t.armed {
		t.k.Cancel(t.pending)
		t.armed = false
	}
}

// CloneInto forks the timer into t2 — its place in the owner's clone —
// bound to owner, the new-world counterpart of the owner (for a NewTimer
// timer, the rebound closure). The owned event, if still queued, is
// remapped so the fork fires it at the same instant the source would, and
// pointed at t2 here, so the timer needs no entry in the mapper's object
// table.
func (t *Timer) CloneInto(m *Mapper, t2 *Timer, owner any) {
	*t2 = *t
	t2.k = m.Kernel()
	t2.owner = owner
	t2.pending = m.MapEventID(t.pending)
	if ev := t2.pending.ev; ev != nil && ev.gen == t2.pending.gen && ev.tm == t {
		ev.tm, ev.arg = t2, t2
	}
}

// Armed reports whether the timer is counting down.
func (t *Timer) Armed() bool { return t.armed }

// Fires reports how many times the timer has expired.
func (t *Timer) Fires() uint64 { return t.fires }

// SetPeriod changes the timeout period. It takes effect at the next Reset;
// a running countdown keeps its deadline. If that Reset's deadline falls
// before the timer's queued event, the Reset cancels and reschedules. A
// negative period panics.
func (t *Timer) SetPeriod(d Duration) {
	if d < 0 {
		panic("sim: Timer.SetPeriod: period must not be negative")
	}
	t.d = d
}

// Period returns the current timeout period.
func (t *Timer) Period() Duration { return t.d }
