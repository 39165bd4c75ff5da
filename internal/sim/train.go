package sim

// A train is an owner-bound periodic event: its owner schedules each
// occurrence from the one before (a receiver re-asserting STOP every few
// character periods while its buffer stays full) with AfterTrain, which is
// AfterArg plus a mark. Its occurrences are ordinary events — queued,
// ordered by the usual (time, ext, seq) rule, seen one at a time by Step,
// PeekNext, Pending and Clone. The difference is what happens when a Drain,
// RunUntil or Run reaches one: before firing it, the kernel offers its owner
// a Bulk, and the owner may apply every period of the train that falls
// before the next real event (and the run limit) in one call, as arithmetic
// on its counters rather than as the events, deliveries and timer pets the
// per-event code would schedule. No real event fires inside such a step, so
// applying the periods back to back is exact; the kernel then accounts for
// them as the per-event model would — Processed counts every occurrence the
// periods stand for, Now ends at the last one, and the sequence numbers
// they would have drawn are drawn, so every later tie breaks as it did.
// An occurrence the owner does not take in bulk fires as the plain event it
// is, which runs the per-event code.

// Train is implemented by the owner of a train (the arg of AfterTrain).
type Train interface {
	// BulkStep is offered the train's occurrence at b.Now(). It may apply
	// a run of steady periods through b (Hold, Periods, Commit); if it does
	// not commit, the occurrence fires as a plain event.
	BulkStep(b *Bulk)
}

// Period describes what one steady period of a train stands for in the
// per-event model. A period begins with the train's own occurrence and ends
// with its last occurrence, flight later (see Bulk.Periods); every
// occurrence of the period lies in between.
type Period struct {
	// Events is how many kernel events the period fires, the train's own
	// occurrence included.
	Events int
	// Draws is how many sequence numbers the period draws, in order.
	Draws int
	// Rearm is the index among Draws of the train's next occurrence.
	Rearm int
	// Pet is the index among Draws of the held timer's Reset, made at the
	// period's last occurrence (see Bulk.Hold).
	Pet int
}

// Bulk is the kernel's offer to a train's owner: the train's occurrence at
// Now is the earliest pending event and within the run limit. The owner
// checks that the train is steady, optionally holds the one timer its
// periods pet (Hold), asks how many periods fit (Periods), applies them, and
// accounts for them (Commit).
type Bulk struct {
	k     *Kernel
	ev    *event // the train's occurrence, off the queue for the step
	limit Time   // the run limit: no occurrence may fall after it

	held   *event // the held timer's event, off the queue for the step
	heldTm *Timer
	period Duration // between the train's occurrences
	flight Duration // from a period's first occurrence to its last
	n      int      // periods counted by Periods, applied by Commit
	done   bool
}

// AfterTrain schedules fn(owner) d after now, like AfterArg, as an
// occurrence of owner's train: Drain, RunUntil and Run offer it to
// owner.BulkStep before firing it.
func (k *Kernel) AfterTrain(d Duration, fn func(any), owner Train) EventID {
	id := k.AfterArg(d, fn, owner)
	id.ev.train = true
	return id
}

// Now is the time of the train's occurrence on offer.
func (b *Bulk) Now() Time { return b.ev.at }

// Hold declares t as the timer every period pets (Resets) at its last
// occurrence — a paused transmitter's short timer, which each arriving STOP
// re-arms before it can expire. If t's expiry is the next real event it is
// taken off the queue for the step, so its settling does not bound the
// step; the kernel puts it back, at the deadline and sequence number of the
// last pet, when the step ends. At most one timer may be held, and Hold
// comes before Periods.
func (b *Bulk) Hold(t *Timer) {
	b.heldTm = t
	if ev, inHeap := b.k.front(); ev != nil && ev.tm == t {
		b.k.pop(inHeap)
		b.held = ev
	}
}

// Periods counts the train's periods that fit in the step: they begin one
// period apart, each ends flight after it begins, and every one must end
// before the next real event fires, at or before the run limit, and before
// the train's following occurrence. A held timer must be due after the
// first period ends, and it must outlast the train's period for more than
// one period to fit. Zero means the occurrence runs per event.
func (b *Bulk) Periods(period, flight Duration) int {
	k := b.k
	if flight <= 0 || flight >= period {
		return 0
	}
	first := b.ev.at + flight
	// A local occurrence at the front's time fires after it: every pending
	// event drew its sequence number before this step.
	end := min(b.limit, maxTime-period)
	if ev, _ := k.front(); ev != nil && ev.at <= end {
		end = ev.at - 1
	}
	if end < first {
		return 0
	}
	n := int((end-first)/period) + 1
	if h := b.heldTm; h != nil {
		switch {
		case !h.armed || h.deadline <= first || h.deadline > first+h.d:
			// Due before the first pet, or parked past where the first
			// pet would move it (a shortened period): per event.
			return 0
		case h.d <= period:
			n = 1
		}
	}
	b.period, b.flight, b.n = period, flight, n
	return n
}

// Commit accounts for the periods Periods counted, each as p describes:
// Processed and the sequence counter advance, the clock ends at the last
// period's last occurrence, the train's event waits for its next
// occurrence under the sequence number its last re-arm drew, and the held
// timer is left armed as the last period's pet left it.
func (b *Bulk) Commit(p Period) {
	k, ev, n := b.k, b.ev, b.n
	if n == 0 {
		return
	}
	last := ev.at + b.flight + Time(n-1)*b.period
	base := k.seq + uint64(n-1)*uint64(p.Draws)
	k.processed += uint64(n) * uint64(p.Events)
	k.bulked += uint64(n) * uint64(p.Events)
	k.seq += uint64(n) * uint64(p.Draws)
	k.now = last
	ev.at, ev.seq = ev.at+Time(n)*b.period, base+uint64(p.Rearm)
	if h := b.heldTm; h != nil {
		h.deadline, h.seq = last+h.d, base+uint64(p.Pet)
	}
	b.done = true
}

// bulkStep offers the popped train event ev to its owner and reports
// whether the owner took it in bulk. Either way a held timer goes back on
// the queue where it now fires; a train taken in bulk re-queues its event,
// unchanged in identity, at its next occurrence.
func (k *Kernel) bulkStep(ev *event, limit Time) bool {
	b := &k.bulk
	*b = Bulk{k: k, ev: ev, limit: limit}
	ev.arg.(Train).BulkStep(b)
	if h := b.held; h != nil {
		h.at, h.seq = b.heldTm.deadline, b.heldTm.seq
		k.place(h)
	}
	if !b.done {
		return false
	}
	k.place(ev)
	return true
}
