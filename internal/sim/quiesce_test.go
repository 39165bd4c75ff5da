package sim

import "testing"

func TestRunUntilQuiescentDrained(t *testing.T) {
	k := NewKernel(1)
	var done uint64
	k.After(3*Millisecond, func() { done++ })
	res := k.RunUntilQuiescent(QuiesceConfig{Progress: func() uint64 { return done }})
	if !res.Drained || res.Stalled || res.DeadlineHit {
		t.Fatalf("result = %+v, want drained", res)
	}
	if res.FinalProgress != 1 {
		t.Errorf("FinalProgress = %d, want 1", res.FinalProgress)
	}
	if res.Outcome() != "drained" {
		t.Errorf("Outcome() = %q", res.Outcome())
	}
}

func TestRunUntilQuiescentStalled(t *testing.T) {
	k := NewKernel(1)
	// A self-rescheduling event that never advances the progress counter:
	// the shape of a wedged link's eternal STOP-refresh chain.
	var tick func()
	tick = func() { k.After(Millisecond, tick) }
	k.After(0, tick)
	var progress uint64
	res := k.RunUntilQuiescent(QuiesceConfig{
		Progress:   func() uint64 { return progress },
		StallAfter: 50 * Millisecond,
	})
	if !res.Stalled {
		t.Fatalf("result = %+v, want stalled", res)
	}
	if res.Elapsed < 50*Millisecond {
		t.Errorf("stalled after %v, want >= StallAfter", res.Elapsed)
	}
}

func TestRunUntilQuiescentDeadline(t *testing.T) {
	k := NewKernel(1)
	// Eternal progress: the counter advances every tick, so only the
	// deadline can end the run.
	var progress uint64
	var tick func()
	tick = func() { progress++; k.After(Millisecond, tick) }
	k.After(0, tick)
	res := k.RunUntilQuiescent(QuiesceConfig{
		Progress:   func() uint64 { return progress },
		StallAfter: 50 * Millisecond,
		Deadline:   100 * Millisecond,
	})
	if !res.DeadlineHit {
		t.Fatalf("result = %+v, want deadline", res)
	}
	if res.Elapsed < 100*Millisecond {
		t.Errorf("Elapsed = %v, want >= Deadline", res.Elapsed)
	}
}

func TestRunUntilQuiescentDeterministic(t *testing.T) {
	run := func() (QuiesceResult, Time) {
		k := NewKernel(7)
		var progress uint64
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 20 {
				progress++
				k.After(Duration(k.Rand().Int63n(int64(Millisecond)))+1, tick)
			} else {
				k.After(Millisecond, tick) // stop progressing, keep events alive
			}
		}
		k.After(0, tick)
		res := k.RunUntilQuiescent(QuiesceConfig{
			Progress:   func() uint64 { return progress },
			StallAfter: 30 * Millisecond,
		})
		return res, k.Now()
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1 != r2 || t1 != t2 {
		t.Errorf("non-deterministic: %+v@%v vs %+v@%v", r1, t1, r2, t2)
	}
}

func TestRunUntilQuiescentRequiresProgress(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for missing Progress predicate")
		}
	}()
	NewKernel(1).RunUntilQuiescent(QuiesceConfig{})
}
