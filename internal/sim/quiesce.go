package sim

// QuiesceConfig parameterizes RunUntilQuiescent: a bounded run that tells a
// wedged simulation apart from a finished one. Campaigns need the
// distinction to be deterministic — the paper's real test bed detected hangs
// by a human watching the message counters stop moving; here the progress
// predicate is that counter.
type QuiesceConfig struct {
	// Progress returns a monotonically non-decreasing figure of merit
	// (messages delivered + packets dropped + resets — anything that
	// proves the system is still doing work). Required.
	Progress func() uint64
	// StallAfter declares the run stalled when Progress has not advanced
	// for this long while events remain pending. Zero selects 200 ms —
	// comfortably past the long-period timeout and every recovery
	// watchdog, so a stall means nothing is coming to the rescue.
	StallAfter Duration
	// Deadline bounds the whole run (an endless-progress pathology: a
	// periodic source feeding an eternally dropping sink still advances
	// Progress forever). Zero selects 10 s.
	Deadline Duration
}

func (c *QuiesceConfig) fillDefaults() {
	if c.StallAfter == 0 {
		c.StallAfter = 200 * Millisecond
	}
	if c.Deadline == 0 {
		c.Deadline = 10 * Second
	}
}

// quiesceCheckInterval is how often RunUntilQuiescent samples progress.
const quiesceCheckInterval = 5 * Millisecond

// QuiesceResult reports how a RunUntilQuiescent run ended. Exactly one of
// Drained, Stalled, DeadlineHit is set.
type QuiesceResult struct {
	// Drained: the event queue emptied — the simulation is finished.
	Drained bool
	// Stalled: events remained pending but Progress froze for StallAfter.
	// With work outstanding this is a detected hang.
	Stalled bool
	// DeadlineHit: the run reached Deadline still making progress.
	DeadlineHit bool
	// Elapsed is virtual time consumed by this call.
	Elapsed Duration
	// FinalProgress is the last Progress sample.
	FinalProgress uint64
}

// Outcome renders the terminal condition ("drained", "stalled",
// "deadline").
func (r QuiesceResult) Outcome() string {
	switch {
	case r.Drained:
		return "drained"
	case r.Stalled:
		return "stalled"
	default:
		return "deadline"
	}
}

// RunUntilQuiescent executes events in quiesceCheckInterval slices until the queue
// drains, progress stalls for StallAfter, or Deadline elapses. It is the
// campaign's hang detector: a fault that wedges the network leaves an
// eternal event chain (STOP refreshes, watchdog-free waits) that Run() would
// chase forever; this returns with Stalled set instead, deterministically —
// the same seed stalls at the same virtual time. A STOP refresh train that
// runs in bulk (see Bulk) keeps its next occurrence queued between slices,
// so a wedged bed still has events pending and stalls rather than drains.
func (k *Kernel) RunUntilQuiescent(cfg QuiesceConfig) QuiesceResult {
	if cfg.Progress == nil {
		panic("sim: RunUntilQuiescent requires a Progress predicate")
	}
	cfg.fillDefaults()
	start := k.Now()
	last := cfg.Progress()
	lastChange := start
	for {
		k.RunFor(quiesceCheckInterval)
		now := k.Now()
		p := cfg.Progress()
		if p != last {
			last = p
			lastChange = now
		}
		res := QuiesceResult{Elapsed: now - start, FinalProgress: p}
		if _, pending := k.PeekNext(); !pending {
			res.Drained = true
			return res
		}
		if now-lastChange >= cfg.StallAfter {
			res.Stalled = true
			return res
		}
		if now-start >= cfg.Deadline {
			res.DeadlineHit = true
			return res
		}
	}
}
