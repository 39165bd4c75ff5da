package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A Timer that keeps one queued event and lets the kernel move it must be
// indistinguishable from the timer it replaced — cancel the pending expiry,
// schedule a new one — running on a plain priority queue. These tests run
// op programs over several timers (pets, stops, period changes in both
// directions, plain events at colliding timestamps, time slices, single
// steps, peeks, and one fork continued on both sides) against exactly that
// oracle and compare everything observable after every op.

// progSched is the scheduler surface a timer program drives.
type progSched interface {
	Now() Time
	AtTag(t Time, tag int) // plain event: calls the world's onEvent(tag)
	NewTimer(d Duration, fn func()) progTimer
	RunFor(d Duration)
	Step() bool
	Run()
	PeekNext() (Time, bool)
	Pending() int
	Processed() uint64
}

type progTimer interface {
	Reset()
	Stop()
	SetPeriod(d Duration)
	Armed() bool
	Fires() uint64
}

// progSpans are the periods, delays and slice lengths a program draws from:
// zero, sub-tick, every wheel level, past the ~17 ms horizon, and spans of
// exactly 2^0, 2^8 and 2^14 ticks so deadlines land on cascade boundaries.
// Timers and plain events share the table so their timestamps collide.
var progSpans = []Duration{
	0, 1, 12_500, 100 * Nanosecond, 1 << tickBits, 3 * Microsecond,
	1 << (tickBits + l0Bits), 50 * Microsecond, 300 * Microsecond,
	1 << (tickBits + l0Bits + l1Bits), 5 * Millisecond, 20 * Millisecond, 60 * Millisecond,
}

const progTimers = 4

// progEntry is one observation: a callback firing, a probe result, or the
// kernel-visible state after an op.
type progEntry struct {
	Kind    byte
	At      Time
	A, B, C int64
}

// timerWorld is the model both schedulers drive: its callbacks re-arm, stop
// and spawn from a private generator whose state forks with the world.
type timerWorld struct {
	s      progSched
	timers []progTimer
	trace  []progEntry
	rnd    uint64
	budget int // pets and spawns the callbacks may still make
	tags   int
}

func newTimerWorld(s progSched) *timerWorld {
	w := &timerWorld{s: s, rnd: 1, budget: 300}
	for i := 0; i < progTimers; i++ {
		i := i
		w.timers = append(w.timers, s.NewTimer(progSpans[3+2*i], func() { w.onTimer(i) }))
	}
	return w
}

func (w *timerWorld) draw(n int) int {
	w.rnd = w.rnd*6364136223846793005 + 1442695040888963407
	return int(w.rnd >> 33 % uint64(n))
}

func (w *timerWorld) spend() bool {
	if w.budget == 0 {
		return false
	}
	w.budget--
	return true
}

func (w *timerWorld) onTimer(i int) {
	w.trace = append(w.trace, progEntry{'T', w.s.Now(), int64(i), int64(w.timers[i].Fires()), int64(w.s.Processed())})
	next := w.timers[(i+1)%progTimers]
	switch w.draw(5) {
	case 0:
		if w.spend() {
			w.timers[i].Reset() // re-arm from its own expiry
		}
	case 1:
		if w.spend() {
			next.Reset()
		}
	case 2:
		next.Stop()
	}
}

func (w *timerWorld) onEvent(tag int) {
	w.trace = append(w.trace, progEntry{'E', w.s.Now(), int64(tag), 0, int64(w.s.Processed())})
	tm := w.timers[tag%progTimers]
	switch w.draw(5) {
	case 0:
		if w.spend() {
			tm.Reset()
		}
	case 1:
		tm.Stop()
	case 2:
		if w.spend() {
			w.spawn(progSpans[w.draw(len(progSpans))])
		}
	}
}

func (w *timerWorld) spawn(d Duration) {
	w.tags++
	w.s.AtTag(w.s.Now()+d, w.tags)
}

// exec runs one two-byte op and records the state it leaves behind.
func (w *timerWorld) exec(op, arg byte) {
	tm := w.timers[arg%progTimers]
	span := progSpans[int(arg/progTimers)%len(progSpans)]
	switch op % 10 {
	case 0, 1, 2:
		tm.Reset()
	case 3:
		tm.Stop()
	case 4:
		tm.SetPeriod(span)
	case 5:
		w.spawn(span)
	case 6:
		w.s.RunFor(span)
	case 7:
		w.s.Step()
	case 8:
		at, ok := w.s.PeekNext()
		w.trace = append(w.trace, progEntry{'P', at, b2i(ok), 0, 0})
	case 9:
		w.trace = append(w.trace, progEntry{'A', 0, int64(arg % progTimers), b2i(tm.Armed()), int64(tm.Fires())})
	}
	w.observe()
}

func (w *timerWorld) observe() {
	w.trace = append(w.trace, progEntry{'S', w.s.Now(), int64(w.s.Pending()), int64(w.s.Processed()), 0})
}

// run executes the ops from index from on (two bytes each) and drains.
func (w *timerWorld) run(ops []byte, from int) {
	for i := from; i < len(ops)/2; i++ {
		w.exec(ops[2*i], ops[2*i+1])
	}
	w.s.Run()
	w.observe()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// The system under test.

type kernelProg struct {
	k *Kernel
	w *timerWorld
}

type tagArg struct {
	w   *timerWorld
	tag int
}

func (a *tagArg) CloneSimArg(m *Mapper) any {
	w2, _ := m.Lookup(a.w)
	return &tagArg{w2.(*timerWorld), a.tag}
}

func fireTag(a any) { a.(*tagArg).w.onEvent(a.(*tagArg).tag) }

func (s *kernelProg) Now() Time              { return s.k.Now() }
func (s *kernelProg) AtTag(t Time, tag int)  { s.k.AtArg(t, fireTag, &tagArg{s.w, tag}) }
func (s *kernelProg) RunFor(d Duration)      { s.k.RunFor(d) }
func (s *kernelProg) Step() bool             { return s.k.Step() }
func (s *kernelProg) Run()                   { s.k.Run() }
func (s *kernelProg) PeekNext() (Time, bool) { return s.k.PeekNext() }
func (s *kernelProg) Pending() int           { return s.k.Pending() }
func (s *kernelProg) Processed() uint64      { return s.k.Processed() }
func (s *kernelProg) NewTimer(d Duration, fn func()) progTimer {
	return NewTimer(s.k, d, fn)
}

// fork clones the kernel-side world mid-program.
func (w *timerWorld) fork(t testing.TB) *timerWorld {
	m := NewMapper()
	s2 := &kernelProg{k: w.s.(*kernelProg).k.Clone(m)}
	w2 := &timerWorld{
		s:      s2,
		trace:  append([]progEntry(nil), w.trace...),
		rnd:    w.rnd,
		budget: w.budget,
		tags:   w.tags,
	}
	s2.w = w2
	m.Put(w, w2)
	for i, tm := range w.timers {
		i := i
		t2 := new(Timer)
		tm.(*Timer).CloneInto(m, t2, func() { w2.onTimer(i) })
		w2.timers = append(w2.timers, t2)
	}
	if err := m.Finish(); err != nil {
		t.Fatalf("fork: %v", err)
	}
	return w2
}

// The oracle: the brute-force scheduler of sched_equiv_test.go, and the
// timer this package had before — Reset cancels the pending expiry and
// schedules a fresh one.

type refProg struct {
	refSched
	w         *timerWorld
	processed uint64
}

func (r *refProg) front() *refEvent {
	var best *refEvent
	for _, ev := range r.evs {
		if ev.canceled || ev.fired {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

func (r *refProg) AtTag(t Time, tag int) { r.After(t-r.now, func() { r.w.onEvent(tag) }) }

func (r *refProg) Step() bool {
	ev := r.front()
	if ev == nil {
		return false
	}
	ev.fired = true
	r.now = ev.at
	r.processed++
	ev.fn()
	return true
}

func (r *refProg) Run() {
	for r.Step() {
	}
}

func (r *refProg) RunFor(d Duration) {
	t := r.now + d
	for {
		ev := r.front()
		if ev == nil || ev.at > t {
			break
		}
		r.Step()
	}
	r.now = t
}

func (r *refProg) PeekNext() (Time, bool) {
	if ev := r.front(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

func (r *refProg) Pending() int {
	n := 0
	for _, ev := range r.evs {
		if !ev.canceled && !ev.fired {
			n++
		}
	}
	return n
}

func (r *refProg) Processed() uint64 { return r.processed }

func (r *refProg) NewTimer(d Duration, fn func()) progTimer {
	return &refTimer{s: r, d: d, fn: fn}
}

type refTimer struct {
	s      *refProg
	d      Duration
	fn     func()
	cancel func()
	armed  bool
	fires  uint64
}

func (t *refTimer) Reset() {
	t.Stop()
	t.armed = true
	t.cancel = t.s.After(t.d, func() {
		t.armed = false
		t.fires++
		t.fn()
	})
}

func (t *refTimer) Stop() {
	if t.armed {
		t.cancel()
		t.armed = false
	}
}

func (t *refTimer) SetPeriod(d Duration) { t.d = d }
func (t *refTimer) Armed() bool          { return t.armed }
func (t *refTimer) Fires() uint64        { return t.fires }

// checkTimerProgram runs ops on the oracle and on the kernel, forking the
// kernel-side world before op cut and finishing the program on both sides
// of the fork. It returns a description of the first difference, or "".
func checkTimerProgram(t testing.TB, ops []byte, cut int) string {
	t.Helper()
	ref := &refProg{}
	ref.w = newTimerWorld(ref)
	ref.w.run(ops, 0)
	want := ref.w.trace

	ks := &kernelProg{k: NewKernel(1)}
	ks.w = newTimerWorld(ks)
	for i := 0; i < cut; i++ {
		ks.w.exec(ops[2*i], ops[2*i+1])
	}
	forked := ks.w.fork(t)
	ks.w.run(ops, cut)
	forked.run(ops, cut)

	for _, side := range []struct {
		name string
		got  []progEntry
	}{{"original", ks.w.trace}, {"fork", forked.trace}} {
		if reflect.DeepEqual(side.got, want) {
			continue
		}
		got, i := side.got, 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Sprintf("%s (forked before op %d of %d): traces (%d and %d entries) diverge at entry %d: kernel %+v, oracle %+v",
			side.name, cut, len(ops)/2, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
	}
	return ""
}

func TestTimerEquivalenceRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(150+rng.Intn(250)))
		rng.Read(ops)
		if diff := checkTimerProgram(t, ops, rng.Intn(len(ops)/2+1)); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
	}
}

// FuzzTimerProgram feeds arbitrary op strings to the same oracle; the first
// byte picks where the world is forked.
func FuzzTimerProgram(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 0x2c, 0, 0, 6, 0x1c, 0, 0, 7, 0})
	f.Add([]byte{200, 0, 1, 6, 0x20, 3, 1, 0, 1, 4, 0x05, 0, 1, 8, 0, 5, 0x21, 6, 0x2c})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1025 {
			return // the oracle is quadratic in program length
		}
		ops := data[1:]
		if diff := checkTimerProgram(t, ops, int(data[0])%(len(ops)/2+1)); diff != "" {
			t.Fatal(diff)
		}
	})
}
