package sim

// Ticker is a periodic callback bound to a kernel: the monitoring plane's
// sampling clock. Like Timer it rides the capture-free AfterArg path — a
// closure per tick would show up in campaigns that sample every millisecond
// for minutes of simulated time.
//
// A Ticker can be given a stop horizon (StopAt): the tick that would land
// past the horizon is never armed, so a quiescence-based hang detector still
// sees the event queue drain once real work has finished. Without a horizon
// the ticker runs until Stop.
//
// Like a Timer, a ticker is bound to its owner: each tick calls a static fn
// with the owner as its argument, so the owner embeds it by value and a
// fork rebinds it with CloneInto.
//
// The zero value is not usable; bind it with Init or construct with
// NewTicker.
type Ticker struct {
	k       *Kernel
	period  Duration
	fn      func(any)
	owner   any
	stopAt  Time // zero: no horizon
	pending EventID
	running bool
	armed   bool
	ticks   uint64
}

// Init binds t — typically a field of owner — to k: once started, fn(owner)
// runs every period. fn should be a package-level function (see
// Timer.Init). Init discards any previous binding. A period that is not
// positive panics.
func (t *Ticker) Init(k *Kernel, period Duration, fn func(any), owner any) {
	if period <= 0 {
		panic("sim: Ticker period must be positive")
	}
	*t = Ticker{k: k, period: period, fn: fn, owner: owner}
}

// NewTicker returns a free-standing ticker that invokes fn every period once
// started: an Init-bound ticker whose owner is the closure itself.
func NewTicker(k *Kernel, period Duration, fn func()) *Ticker {
	t := new(Ticker)
	t.Init(k, period, callClosure, fn)
	return t
}

// SetStopAt sets the horizon past which no tick is scheduled. Zero removes
// the horizon. Takes effect when the next tick is armed.
func (t *Ticker) SetStopAt(at Time) { t.stopAt = at }

// Start arms the first tick one period from now. Starting an armed ticker is
// a no-op; starting one parked at its horizon re-arms it (after SetStopAt
// moved the horizon out).
func (t *Ticker) Start() {
	t.running = true
	if !t.armed {
		t.arm()
	}
}

func (t *Ticker) arm() {
	next := t.k.Now() + t.period
	if t.stopAt != 0 && next > t.stopAt {
		return // parked at the horizon; Start() re-arms if moved
	}
	t.armed = true
	t.pending = t.k.AfterArg(t.period, tickerFire, t)
}

func tickerFire(a any) {
	t := a.(*Ticker)
	t.armed = false
	t.ticks++
	t.fn(t.owner)
	if t.running && !t.armed {
		t.arm()
	}
}

// CloneInto forks the ticker into t2, its place in the owner's clone, bound
// to owner (see Timer.CloneInto). The pending tick remaps through the
// mapper's object table, so t2 must stay put until the fork completes.
func (t *Ticker) CloneInto(m *Mapper, t2 *Ticker, owner any) {
	*t2 = *t
	t2.k = m.Kernel()
	t2.owner = owner
	t2.pending = m.MapEventID(t.pending)
	m.Put(t, t2)
}

// Stop disarms the ticker. The callback will not fire again until Start.
func (t *Ticker) Stop() {
	t.running = false
	if t.armed {
		t.k.Cancel(t.pending)
		t.armed = false
	}
}

// Running reports whether the ticker has been started and not stopped. A
// running ticker may still be parked at its stop horizon (Armed false).
func (t *Ticker) Running() bool { return t.running }

// Armed reports whether a tick is scheduled.
func (t *Ticker) Armed() bool { return t.armed }

// Ticks reports how many times the callback has fired.
func (t *Ticker) Ticks() uint64 { return t.ticks }

// Period returns the tick period.
func (t *Ticker) Period() Duration { return t.period }
