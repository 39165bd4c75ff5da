package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// The wheel+pool scheduler must fire events in exactly the order a plain
// priority queue would: (time, insertion sequence). These tests pin that by
// running randomized event programs — nested scheduling, cancels, stale
// cancels, delays straddling every wheel level and the heap fallback —
// against a brute-force reference scheduler and comparing full fire traces.

// refSched is the reference: an unordered list scanned for the minimum
// (at, seq) on every step. Too slow for simulations, trivially correct.
type refSched struct {
	now Time
	seq int
	evs []*refEvent
}

type refEvent struct {
	at       Time
	seq      int
	fn       func()
	canceled bool
	fired    bool
}

func (r *refSched) Now() Time { return r.now }

func (r *refSched) After(d Duration, fn func()) func() {
	ev := &refEvent{at: r.now + d, seq: r.seq, fn: fn}
	r.seq++
	r.evs = append(r.evs, ev)
	return func() { ev.canceled = true }
}

func (r *refSched) Step() bool {
	var best *refEvent
	bi := -1
	for i, ev := range r.evs {
		if ev.canceled || ev.fired {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best, bi = ev, i
		}
	}
	if best == nil {
		return false
	}
	r.evs[bi].fired = true
	r.now = best.at
	best.fn()
	return true
}

// testSched is the surface a program drives; both schedulers implement it.
// After returns a cancel thunk so programs can cancel by index, including
// after the event fired (the stale-EventID case for the pooled kernel).
type testSched interface {
	Now() Time
	After(d Duration, fn func()) func()
	Step() bool
}

type kernelSched struct{ k *Kernel }

func (s kernelSched) Now() Time  { return s.k.Now() }
func (s kernelSched) Step() bool { return s.k.Step() }
func (s kernelSched) After(d Duration, fn func()) func() {
	id := s.k.After(d, fn)
	return func() { s.k.Cancel(id) }
}

// traceEntry records one fired event.
type traceEntry struct {
	At  Time
	Tag int
}

// randomDelay spans every placement class: same tick, level 0/1/2 of the
// wheel, and past the ~17 ms horizon into the heap.
func randomDelay(rng *rand.Rand) Duration {
	switch rng.Intn(6) {
	case 0:
		return Duration(rng.Int63n(int64(16 * Nanosecond))) // same tick
	case 1:
		return Duration(rng.Int63n(int64(4 * Microsecond))) // level 0
	case 2:
		return Duration(rng.Int63n(int64(270 * Microsecond))) // level 1
	case 3:
		return Duration(rng.Int63n(int64(17 * Millisecond))) // level 2
	case 4:
		return 17*Millisecond + Duration(rng.Int63n(int64(100*Millisecond))) // heap
	default:
		return Duration(rng.Int63n(int64(40 * Millisecond))) // boundary mix
	}
}

// runProgram executes one randomized event program and returns its trace.
// All random choices come from a fresh rng with the given seed, drawn in
// fire order — so two schedulers produce the same trace iff they fire events
// in the same order.
func runProgram(s testSched, seed int64) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var cancels []func()
	budget := 400 // total events scheduled, bounding the program

	var spawn func(tag int) func()
	spawn = func(tag int) func() {
		return func() {
			trace = append(trace, traceEntry{s.Now(), tag})
			for n := rng.Intn(3); n > 0 && budget > 0; n-- {
				budget--
				cancels = append(cancels, s.After(randomDelay(rng), spawn(budget)))
			}
			if len(cancels) > 0 && rng.Intn(4) == 0 {
				// Cancel a random registered event — live, already
				// canceled, or already fired; all must be safe.
				cancels[rng.Intn(len(cancels))]()
			}
		}
	}
	for i := 0; i < 20; i++ {
		budget--
		cancels = append(cancels, s.After(randomDelay(rng), spawn(budget)))
	}
	for s.Step() {
	}
	return trace
}

func TestSchedulerEquivalenceRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		got := runProgram(kernelSched{NewKernel(1)}, seed)
		want := runProgram(&refSched{}, seed)
		if len(got) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: traces diverge at event %d: kernel %+v, reference %+v",
						seed, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
				}
			}
			t.Fatalf("seed %d: kernel trace has %d extra events", seed, len(got)-len(want))
		}
	}
}

// runSparseProgram is runProgram in the regime the wheel's occupancy words
// exist for. Few events are alive at a time, so the frontier crosses idle
// gaps spanning every level and the heap; timestamps fall exactly on the
// 2^8-, 2^14- and 2^20-tick boundaries where level 1 cascades, level 2
// cascades and the wheel's horizon ends, and one picosecond before them; and
// whole slots are filled and canceled at once, so the sweep meets occupied
// slots that hold nothing live.
func runSparseProgram(s testSched, seed int64) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var cancels []func()
	budget := 300

	delay := func() Duration {
		if rng.Intn(3) > 0 {
			return randomDelay(rng)
		}
		shift := uint(tickBits + []int{8, 14, 20}[rng.Intn(3)])
		at := (s.Now()>>shift + 1 + Time(rng.Intn(3))) << shift
		return at - Time(rng.Intn(2)) - s.Now()
	}
	var spawn func(tag int) func()
	spawn = func(tag int) func() {
		return func() {
			trace = append(trace, traceEntry{s.Now(), tag})
			for n := 1 + rng.Intn(5)/4; n > 0 && budget > 0; n-- {
				budget--
				cancels = append(cancels, s.After(delay(), spawn(budget)))
			}
			if rng.Intn(3) == 0 {
				// A slot of corpses: up to three events within one tick,
				// canceled before the frontier gets there.
				d := delay()
				for n := 1 + rng.Intn(3); n > 0 && budget > 0; n-- {
					budget--
					s.After(d, spawn(budget))()
				}
			}
			if rng.Intn(4) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		}
	}
	for i := 0; i < 3; i++ {
		budget--
		cancels = append(cancels, s.After(delay(), spawn(budget)))
	}
	for s.Step() {
	}
	return trace
}

func TestSchedulerEquivalenceSparsePrograms(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		got := runSparseProgram(kernelSched{NewKernel(1)}, seed)
		want := runSparseProgram(&refSched{}, seed)
		if len(want) < 20 {
			t.Fatalf("seed %d: program died after %d events", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: traces (%d and %d events) diverge at event %d: kernel %+v, reference %+v",
				seed, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	idA := k.At(10, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// A's struct is back on the free list. A stale cancel must not touch
	// whatever reuses it.
	idB := k.After(5, func() { fired++ })
	k.Cancel(idA) // stale: generation mismatch
	k.Cancel(idA) // idempotent
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after stale cancels, want 1", k.Pending())
	}
	k.Run()
	if fired != 2 {
		t.Errorf("B did not fire after stale cancel of A (fired = %d)", fired)
	}
	k.Cancel(idB) // cancel-after-fire of the reused struct: also a no-op
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

func TestKernelSameTickInsertionOrderTies(t *testing.T) {
	// Distinct times within one 2^14 ps wheel tick share a slot; exactly
	// equal times must still break ties by insertion order.
	k := NewKernel(1)
	var order []int
	base := Time(1 << 20)
	k.At(base+3, func() { order = append(order, 0) })
	k.At(base+1, func() { order = append(order, 1) })
	k.At(base+1, func() { order = append(order, 2) })
	k.At(base+2, func() { order = append(order, 3) })
	k.At(base+1, func() { order = append(order, 4) })
	k.Run()
	want := []int{1, 2, 4, 3, 0}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("fire order = %v, want %v", order, want)
	}
}

func TestKernelScheduleAtNowFromCallback(t *testing.T) {
	// An event scheduled at the current instant from inside a callback
	// lands behind the wheel's harvest cursor and must still fire, after
	// every earlier-scheduled event at the same time.
	k := NewKernel(1)
	var order []int
	k.At(100, func() {
		order = append(order, 1)
		k.After(0, func() { order = append(order, 3) })
	})
	k.At(100, func() { order = append(order, 2) })
	k.Run()
	if want := []int{1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("fire order = %v, want %v", order, want)
	}
}

func TestTimerRescheduleAcrossWheelHeapBoundary(t *testing.T) {
	// A timer re-armed with periods on both sides of the ~17 ms wheel
	// horizon must fire at exactly Reset time + period each time.
	k := NewKernel(1)
	var fires []Time
	var arm func()
	tm := NewTimer(k, 50*Millisecond, func() { arm() })
	// Self-re-arming across the boundary: long, short, long, short.
	periods := []Duration{50 * Millisecond, 100 * Nanosecond, 30 * Millisecond, 2 * Microsecond}
	i := 0
	var want []Time
	arm = func() {
		fires = append(fires, k.Now())
		if i == len(periods) {
			return
		}
		tm.SetPeriod(periods[i])
		want = append(want, k.Now()+periods[i])
		i++
		tm.Reset()
	}
	arm()
	k.Run()
	if len(fires) != len(periods)+1 {
		t.Fatalf("timer fired %d times, want %d", len(fires)-1, len(periods))
	}
	if !reflect.DeepEqual(fires[1:], want) {
		t.Errorf("fire times = %v, want %v", fires[1:], want)
	}
	if tm.Fires() != uint64(len(periods)) {
		t.Errorf("Fires = %d, want %d", tm.Fires(), len(periods))
	}
	// And a Reset that preempts a pending long timer with a short one: the
	// long expiry must not fire.
	k2 := NewKernel(1)
	count := 0
	tm2 := NewTimer(k2, 40*Millisecond, func() { count++ })
	tm2.Reset()
	k2.RunFor(Millisecond)
	tm2.SetPeriod(10 * Microsecond)
	tm2.Reset() // cancels the heap event, arms a wheel event
	k2.Run()
	if count != 1 {
		t.Errorf("timer fired %d times after cross-boundary reset, want 1", count)
	}
	if k2.Now() != Millisecond+10*Microsecond {
		t.Errorf("final time = %v, want %v", k2.Now(), Millisecond+10*Microsecond)
	}
}
