package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelTiesBreakByInsertionOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want insertion order", order)
		}
	}
}

func TestKernelNowAdvancesExactly(t *testing.T) {
	k := NewKernel(1)
	k.At(12_500, func() {
		if k.Now() != 12_500 {
			t.Errorf("Now() = %v inside event, want 12500ps", k.Now())
		}
	})
	k.Run()
	if k.Now() != 12_500 {
		t.Errorf("Now() = %v after run, want 12500ps", k.Now())
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	id := k.At(10, func() { ran = true })
	k.Cancel(id)
	k.Run()
	if ran {
		t.Error("canceled event ran")
	}
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

func TestKernelCancelIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	id := k.At(10, func() {})
	k.Cancel(id)
	k.Cancel(id)
	k.Run()
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	k := NewKernel(1)
	var ran []Time
	k.At(10, func() { ran = append(ran, 10) })
	k.At(100, func() { ran = append(ran, 100) })
	k.RunUntil(50)
	if k.Now() != 50 {
		t.Errorf("Now() = %v, want 50", k.Now())
	}
	if len(ran) != 1 || ran[0] != 10 {
		t.Errorf("ran = %v, want [10]", ran)
	}
	k.Run()
	if len(ran) != 2 {
		t.Errorf("after Run, ran = %v, want both events", ran)
	}
}

func TestRunUntilInclusiveOfDeadline(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.At(50, func() { ran = true })
	k.RunUntil(50)
	if !ran {
		t.Error("event at the deadline did not run")
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := Time(1); i <= 100; i++ {
		k.At(i, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	if k.Pending() != 97 {
		t.Errorf("Pending() = %d, want 97", k.Pending())
	}
}

func TestKernelDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		k := NewKernel(seed)
		var out []int64
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth == 0 {
				return
			}
			d := Duration(k.Rand().Intn(1000) + 1)
			k.After(d, func() {
				out = append(out, int64(k.Now()))
				schedule(depth - 1)
				schedule(depth - 1)
			})
		}
		schedule(6)
		k.Run()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestKernelTimeStringFormats(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{12_500, "12.5ns"},
		{1_000_000, "1us"},
		{50_000_000_000, "50ms"},
		{2_000_000_000_000, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of non-negative delays, events execute in
// non-decreasing time order and the count of executed events matches.
func TestKernelOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel(7)
		var times []Time
		for _, d := range delays {
			k.After(Duration(d), func() { times = append(times, k.Now()) })
		}
		k.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTimerFiresAfterPeriod(t *testing.T) {
	k := NewKernel(1)
	fired := Time(-1)
	tm := NewTimer(k, 200*Nanosecond, func() { fired = k.Now() })
	tm.Reset()
	k.Run()
	if fired != 200*Nanosecond {
		t.Errorf("timer fired at %v, want 200ns", fired)
	}
	if tm.Fires() != 1 {
		t.Errorf("Fires() = %d, want 1", tm.Fires())
	}
}

func TestTimerResetExtendsDeadline(t *testing.T) {
	k := NewKernel(1)
	fired := Time(-1)
	tm := NewTimer(k, 100*Nanosecond, func() { fired = k.Now() })
	tm.Reset()
	// Keep resetting every 50 ns until t = 500 ns; the timer must fire at
	// 600 ns, one full period after the last reset.
	for i := 1; i <= 10; i++ {
		k.At(Time(i)*50*Nanosecond, tm.Reset)
	}
	k.Run()
	if fired != 600*Nanosecond {
		t.Errorf("timer fired at %v, want 600ns", fired)
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	k := NewKernel(1)
	tm := NewTimer(k, 100, func() { t.Error("stopped timer fired") })
	tm.Reset()
	tm.Stop()
	if tm.Armed() {
		t.Error("Armed() = true after Stop")
	}
	k.Run()
}

func TestTimerSetPeriod(t *testing.T) {
	k := NewKernel(1)
	var fired Time
	tm := NewTimer(k, 100, func() { fired = k.Now() })
	tm.SetPeriod(250)
	if tm.Period() != 250 {
		t.Fatalf("Period() = %v, want 250", tm.Period())
	}
	tm.Reset()
	k.Run()
	if fired != 250 {
		t.Errorf("fired at %v, want 250", fired)
	}
}

func TestTimerPetsLeaveOneQueuedEvent(t *testing.T) {
	// The per-character watchdog pattern: an armed timer petted far more
	// often than it expires. It must hold one queued event — not one
	// canceled event per pet for every fork to copy — while the queue
	// reaches and moves that event a dozen times, and petting must not
	// allocate.
	k := NewKernel(1)
	tm := NewTimer(k, 10*Microsecond, func() { t.Error("petted timer fired") })
	tm.Reset()
	for i := 0; i < 10_000; i++ {
		k.RunFor(12_500 * Picosecond)
		tm.Reset()
	}
	if k.Queued() != 1 || k.Pending() != 1 {
		t.Errorf("after 10000 pets: Queued = %d, Pending = %d, want 1 and 1", k.Queued(), k.Pending())
	}
	if avg := testing.AllocsPerRun(1000, tm.Reset); avg != 0 {
		t.Errorf("Timer.Reset of an armed timer allocates %.2f times per call, want 0", avg)
	}
	// A stopped timer's event stays queued until harvested; a Reset
	// within that time revives it rather than queueing a second one.
	tm.Stop()
	if k.Queued() != 1 || k.Pending() != 0 {
		t.Errorf("after Stop: Queued = %d, Pending = %d, want 1 and 0", k.Queued(), k.Pending())
	}
	tm.Reset()
	if k.Queued() != 1 || k.Pending() != 1 {
		t.Errorf("after Stop, Reset: Queued = %d, Pending = %d, want 1 and 1", k.Queued(), k.Pending())
	}
	tm.Stop()
	k.Run()
	if k.Queued() != 0 {
		t.Errorf("after draining: Queued = %d, want 0", k.Queued())
	}
}

func TestTimerNegativePeriodPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s with a negative period did not panic", name)
			} else if s, _ := r.(string); !strings.Contains(s, "Timer") {
				t.Errorf("%s panic %q does not name the Timer API", name, r)
			}
		}()
		fn()
	}
	k := NewKernel(1)
	mustPanic("NewTimer", func() { NewTimer(k, -1, func() {}) })
	tm := NewTimer(k, 0, func() {})
	mustPanic("SetPeriod", func() { tm.SetPeriod(-Nanosecond) })
	if tm.Period() != 0 {
		t.Errorf("rejected SetPeriod changed the period to %v", tm.Period())
	}
}

// timerOwner embeds its timer by value, the way model objects do.
type timerOwner struct {
	tm    Timer
	fired []Time
}

func timerOwnerFire(a any) {
	o := a.(*timerOwner)
	o.fired = append(o.fired, o.tm.k.Now())
}

// An owner-bound timer forks by copy into the owner's clone: the fork's
// expiry calls back with the clone, the base's with the base owner, and
// nothing but the kernel enters the mapper's object table. A queued expiry
// of a timer nobody cloned fails the fork.
func TestTimerForkBindsOwner(t *testing.T) {
	k := NewKernel(1)
	o := &timerOwner{}
	o.tm.Init(k, 100*Nanosecond, timerOwnerFire, o)
	o.tm.Reset()
	k.RunFor(30 * Nanosecond)
	o.tm.Reset() // re-armed in place: the queued event still waits at 100ns

	m := NewMapper()
	k2 := k.Clone(m)
	o2 := &timerOwner{}
	o.tm.CloneInto(m, &o2.tm, o2)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := m.objects(); n != 1 {
		t.Errorf("fork registered %d objects, want 1 (the kernel)", n)
	}
	k.Run()
	k2.Run()
	want := []Time{130 * Nanosecond}
	if len(o.fired) != 1 || o.fired[0] != want[0] || len(o2.fired) != 1 || o2.fired[0] != want[0] {
		t.Errorf("base fired at %v, fork at %v; want %v each", o.fired, o2.fired, want)
	}

	o.tm.Reset()
	m = NewMapper()
	k.Clone(m)
	if err := m.Finish(); err == nil || !strings.Contains(err.Error(), "not cloned") {
		t.Errorf("fork leaving an armed timer behind: err = %v", err)
	}
}

// Rebind assigns a counterpart at Finish whatever order the two objects
// cloned in, and fails the fork, naming both types, when the counterpart is
// missing or is not of the destination's type.
func TestRebind(t *testing.T) {
	type node struct{ next *node }
	a, b := &node{}, &node{}
	a.next = b

	m := NewMapper()
	NewKernel(1).Clone(m)
	a2 := &node{}
	Rebind(m, &a2.next, a.next) // b's counterpart is registered after
	b2 := &node{}
	m.Put(b, b2)
	if err := m.Finish(); err != nil || a2.next != b2 {
		t.Fatalf("Finish: err = %v, a2.next = %p, want %p", err, a2.next, b2)
	}

	m = NewMapper()
	NewKernel(1).Clone(m)
	Rebind(m, &a2.next, a.next)
	if err := m.Finish(); err == nil || !strings.Contains(err.Error(), "uncloned *sim.node") {
		t.Errorf("rebind to an unregistered object: err = %v", err)
	}

	m = NewMapper()
	NewKernel(1).Clone(m)
	m.Put(b, "not a node")
	Rebind(m, &a2.next, a.next)
	if err := m.Finish(); err == nil || !strings.Contains(err.Error(), "a *sim.node field refers to") {
		t.Errorf("rebind to a counterpart of the wrong type: err = %v", err)
	}
}

// objects counts the old→new pairs the current fork has registered.
func (m *Mapper) objects() int {
	n := 0
	for _, c := range m.ents {
		if c.gen == m.gen {
			n++
		}
	}
	return n
}
