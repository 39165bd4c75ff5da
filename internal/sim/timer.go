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
// The zero value is not usable; construct with NewTimer.
type Timer struct {
	k       *Kernel
	d       Duration
	fn      func()
	pending EventID // the owned event; stale once it fired or was harvested
	armed   bool
	fires   uint64

	// Where the owned event fires, as opposed to where it waits.
	deadline Time
	seq      uint64
}

// NewTimer returns a timer that invokes fn when d elapses without a Reset.
// The timer starts disarmed. A negative period panics.
func NewTimer(k *Kernel, d Duration, fn func()) *Timer {
	if d < 0 {
		panic("sim: Timer period must not be negative")
	}
	return &Timer{k: k, d: d, fn: fn}
}

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
	t.fn()
}

// Stop disarms the timer without firing.
func (t *Timer) Stop() {
	if t.armed {
		t.k.Cancel(t.pending)
		t.armed = false
	}
}

// Clone forks the timer into m's new world. The callback cannot be copied
// (it is a closure over the owner), so the owner's own clone passes the
// rebound fn; the owned event, if still queued, is remapped so the fork
// fires it at the same instant the source would. (Mapper.Finish points the
// event back at the clone.)
func (t *Timer) Clone(m *Mapper, fn func()) *Timer {
	t2 := &Timer{
		k:        m.Kernel(),
		d:        t.d,
		fn:       fn,
		pending:  m.MapEventID(t.pending),
		armed:    t.armed,
		fires:    t.fires,
		deadline: t.deadline,
		seq:      t.seq,
	}
	m.Put(t, t2)
	return t2
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
