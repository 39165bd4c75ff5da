package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// A train whose owner applies its steady periods in bulk must be
// indistinguishable from the same train run one occurrence at a time. These
// tests drive random programs — local and externally ordered events on a
// 12.5 ns grid (so they tie with the trains' occurrences), cancels, plain
// timers, several trains on one kernel starting, stopping and being cut —
// through Step, Drain, RunUntil and a mid-run Clone, once with the refreshes
// scheduled as trains (AfterTrain) and once as plain events (AfterArg), and
// compare every callback's view (time, Processed, the trains' counters) and
// the kernel's state after every call (Now, Processed, PeekNext, Pending).

const (
	trPeriod = 100 * Nanosecond // the trains' period
	trGrid   = 12_500           // every program time is a multiple of this
	trTrains = 3
	trTimers = 2
)

// trOwner is one train and the peer its occurrences reach: each occurrence
// (while stopping) sends a message that arrives flight later, pausing the
// peer and re-arming its short timer; a peer with work arms its long timer
// on arrival. This is the shape of a link controller's STOP refresh.
type trOwner struct {
	w         *trWorld
	bulk      bool // the refresh is a train (AfterTrain), not a plain event
	refresh   EventID
	refreshOn bool
	short     Timer
	long      Timer
	flight    Duration
	stopping  bool
	cut       bool // messages are dropped at the sender (a severed link)
	paused    bool
	work      bool // the peer has something to send: an arrival arms long

	refreshes, sent, recv, dropped uint64
	tap                            uint64 // digest of every arrival time, in order
	bulkPeriods                    uint64
}

type trWorld struct {
	k      *Kernel
	owners []*trOwner
	timers [trTimers]Timer
	ids    []EventID
	xseq   uint64
	budget int
	trace  []progEntry
}

type trTag struct {
	w   *trWorld
	tag int
}

func (a *trTag) CloneSimArg(m *Mapper) any {
	w2, _ := m.Lookup(a.w)
	return &trTag{w2.(*trWorld), a.tag}
}

// trFlights mixes flights that allow bulk periods with ones that reach or
// pass the next occurrence; trShorts mixes short timers that outlast the
// train's period with ones that do not.
var (
	trFlights = []Duration{25_000, 37_500, 87_500, 100 * Nanosecond, 150 * Nanosecond}
	trShorts  = []Duration{200 * Nanosecond, 250 * Nanosecond, 100 * Nanosecond, 75 * Nanosecond}
	trLongs   = []Duration{3 * Microsecond, 30 * Millisecond}
)

func newTrWorld(seed int64, bulk bool) *trWorld {
	k := NewKernel(seed)
	w := &trWorld{k: k, budget: 400}
	r := k.Rand()
	for i := 0; i < trTrains; i++ {
		o := &trOwner{w: w, bulk: bulk, flight: trFlights[r.Intn(len(trFlights))]}
		if i == 0 {
			o.flight = 25_000 // at least one train can always run in bulk
		}
		o.short.Init(k, trShorts[r.Intn(len(trShorts))], trShortFire, o)
		o.long.Init(k, trLongs[r.Intn(len(trLongs))], trLongFire, o)
		w.owners = append(w.owners, o)
	}
	for i := range w.timers {
		w.timers[i].Init(k, Duration(1+r.Intn(40))*trGrid, trTimerFire, w)
	}
	for i := 0; i < 6; i++ {
		w.spawn(i)
	}
	return w
}

func (w *trWorld) digest() int64 {
	var h uint64
	for _, o := range w.owners {
		for _, v := range []uint64{o.sent, o.recv, o.dropped, o.tap, o.refreshes,
			o.short.Fires(), o.long.Fires(), uint64(b2i(o.paused))} {
			h = h*1099511628211 + v
		}
	}
	return int64(h)
}

func (w *trWorld) record(kind byte, a int64) {
	w.trace = append(w.trace, progEntry{Kind: kind, At: w.k.Now(), A: a,
		B: int64(w.k.Processed()), C: w.digest()})
}

// spawn schedules a program event on the grid, local or external.
func (w *trWorld) spawn(tag int) {
	if w.budget <= 0 {
		return
	}
	w.budget--
	r := w.k.Rand()
	var d Duration
	switch r.Intn(5) {
	case 0:
		d = Duration(r.Intn(16)) * trGrid
	case 4:
		// On a train's grid: a period multiple, or one of its arrivals.
		d = Duration(r.Intn(64))*trPeriod + Duration(r.Intn(2))*25_000
	case 1:
		d = Duration(r.Intn(400)) * trGrid
	case 2:
		d = Duration(r.Intn(8000)) * trGrid
	default:
		d = Duration(r.Intn(200)) * Microsecond
	}
	arg := &trTag{w, tag}
	if r.Intn(3) == 0 {
		w.xseq++
		w.ids = append(w.ids, w.k.AtExt(w.k.Now()+d, uint32(r.Intn(3)), w.xseq, trEventFire, arg))
		return
	}
	w.ids = append(w.ids, w.k.AfterArg(d, trEventFire, arg))
}

func trEventFire(a any) {
	t := a.(*trTag)
	w := t.w
	w.record('e', int64(t.tag))
	r := w.k.Rand()
	for n := r.Intn(3); n > 0; n-- {
		w.spawn(t.tag*3 + n)
	}
	if len(w.ids) > 0 && r.Intn(4) == 0 {
		w.k.Cancel(w.ids[r.Intn(len(w.ids))])
	}
	if r.Intn(3) == 0 {
		tm := &w.timers[r.Intn(trTimers)]
		if r.Intn(3) == 0 {
			tm.Stop()
		} else {
			tm.Reset()
		}
	}
	o := w.owners[r.Intn(len(w.owners))]
	switch r.Intn(10) {
	case 0, 1, 2:
		o.assertStop()
	case 3:
		o.stopping = false // the GO
		if o.refreshOn {
			w.k.Cancel(o.refresh)
			o.refreshOn = false
		}
	case 4:
		o.paused = false // the peer resumes on its own
		o.short.Stop()
	case 5:
		o.work = !o.work
		if !o.work {
			o.long.Stop()
		}
	case 6:
		o.cut = !o.cut
	case 7:
		if o.paused {
			o.short.Reset() // some other symbol re-arms the peer's timer
		}
	case 8:
		o.short.SetPeriod(trShorts[r.Intn(len(trShorts))])
	}
}

func trTimerFire(a any) { a.(*trWorld).record('t', 0) }

func (o *trOwner) assertStop() {
	if o.stopping {
		return
	}
	o.stopping = true
	o.send()
	o.armRefresh()
}

func (o *trOwner) armRefresh() {
	if o.refreshOn {
		return
	}
	o.refreshOn = true
	if o.bulk {
		o.refresh = o.w.k.AfterTrain(trPeriod, trRefreshFire, o)
	} else {
		o.refresh = o.w.k.AfterArg(trPeriod, trRefreshFire, o)
	}
}

func (o *trOwner) send() {
	o.sent++
	if o.cut {
		o.dropped++
		return
	}
	o.w.k.AfterArg(o.flight, trArrive, o)
}

func trRefreshFire(a any) {
	o := a.(*trOwner)
	o.refreshOn = false
	o.refreshes++
	if !o.stopping {
		return
	}
	o.send()
	o.armRefresh()
}

func trArrive(a any) {
	o := a.(*trOwner)
	o.recv++
	o.tap = o.tap*31 + uint64(o.w.k.Now())
	o.paused = true
	o.short.Reset()
	if o.work && !o.long.Armed() {
		o.long.Reset()
	}
}

func trShortFire(a any) {
	o := a.(*trOwner)
	o.paused = false
	o.w.record('s', 0)
}

func trLongFire(a any) {
	o := a.(*trOwner)
	o.work = false
	o.w.record('l', 0)
}

var trPeriodShape = Period{Events: 2, Draws: 3, Rearm: 1, Pet: 2}

func (o *trOwner) BulkStep(b *Bulk) {
	if !o.stopping || o.cut || !o.paused || o.work && !o.long.Armed() {
		return
	}
	b.Hold(&o.short)
	n := b.Periods(trPeriod, o.flight)
	for i := 0; i < n; i++ {
		o.tap = o.tap*31 + uint64(b.Now()+o.flight+Time(i)*trPeriod)
	}
	o.refreshes += uint64(n)
	o.sent += uint64(n)
	o.recv += uint64(n)
	o.bulkPeriods += uint64(n)
	b.Commit(trPeriodShape)
}

// clone forks the world onto m's kernel.
func (w *trWorld) clone(m *Mapper) *trWorld {
	w2 := &trWorld{k: m.Kernel(), xseq: w.xseq, budget: w.budget}
	m.Put(w, w2)
	w2.trace = append([]progEntry(nil), w.trace...)
	for _, id := range w.ids {
		w2.ids = append(w2.ids, m.MapEventID(id))
	}
	for i := range w.timers {
		w.timers[i].CloneInto(m, &w2.timers[i], w2)
	}
	for _, o := range w.owners {
		o2 := new(trOwner)
		*o2 = *o
		o2.w = w2
		m.Put(o, o2)
		o2.refresh = m.MapEventID(o.refresh)
		o.short.CloneInto(m, &o2.short, o2)
		o.long.CloneInto(m, &o2.long, o2)
		w2.owners = append(w2.owners, o2)
	}
	return w2
}

func (w *trWorld) fork(t testing.TB) *trWorld {
	m := NewMapper()
	w.k.Clone(m)
	w2 := w.clone(m)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	return w2
}

// trDrive runs the op program ops from op from on w, recording the
// kernel's state after every call.
func trDrive(w *trWorld, ops []int64, from int) {
	for _, op := range ops[from:] {
		k := w.k
		switch op % 4 {
		case 0:
			k.Step()
		case 1:
			k.Drain(k.Now() + Duration(op/4)*trGrid)
		default:
			k.RunUntil(k.Now() + Duration(op/4)*trGrid)
		}
		next, has := k.PeekNext()
		w.trace = append(w.trace, progEntry{Kind: 'k', At: k.Now(),
			A: int64(next) + b2i(has), B: int64(k.Processed()), C: int64(k.Pending())})
	}
}

func trOps(seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	ops := make([]int64, 200)
	for i := range ops {
		switch r.Intn(4) {
		case 0:
			ops[i] = 0 // Step
		case 1:
			ops[i] = 4*int64(r.Intn(64)) + int64(1+r.Intn(3))
		default:
			ops[i] = 4*int64(r.Intn(2000)) + int64(1+r.Intn(3))
		}
	}
	return ops
}

func trRun(t testing.TB, seed int64, bulk bool, forkAt int) ([]progEntry, *trWorld) {
	ops := trOps(seed)
	w := newTrWorld(seed, bulk)
	if forkAt < 0 {
		trDrive(w, ops, 0)
		return w.trace, w
	}
	trDrive(w, ops[:forkAt], 0)
	// Two forks continue concurrently from the one base (under -race this
	// checks that Clone only reads the base), and the base continues too.
	var wg sync.WaitGroup
	forks := []*trWorld{w.fork(t), w.fork(t)}
	for _, f := range forks {
		wg.Add(1)
		go func(f *trWorld) { defer wg.Done(); trDrive(f, ops, forkAt) }(f)
	}
	trDrive(w, ops, forkAt)
	wg.Wait()
	for i, f := range forks {
		if !reflect.DeepEqual(f.trace, w.trace) {
			t.Fatalf("seed %d: fork %d diverges from its base", seed, i)
		}
	}
	return w.trace, w
}

func trDiff(t *testing.T, seed int64, what string, got, want []progEntry) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("seed %d, %s: traces (%d and %d entries) diverge at %d: got %+v, want %+v",
		seed, what, len(got), len(want), i, got[i:min(i+2, len(got))], want[i:min(i+2, len(want))])
}

func TestTrainBulkMatchesPerEvent(t *testing.T) {
	var bulkPeriods uint64
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		want, _ := trRun(t, seed, false, -1)
		got, w := trRun(t, seed, true, -1)
		trDiff(t, seed, "bulk", got, want)
		for _, o := range w.owners {
			bulkPeriods += o.bulkPeriods
		}
		forkAt := 20 + int(seed)*5
		gotFork, _ := trRun(t, seed, true, forkAt)
		trDiff(t, seed, "bulk, forked", gotFork, want)
		wantFork, _ := trRun(t, seed, false, forkAt)
		trDiff(t, seed, "per event, forked", wantFork, want)
	}
	// The bulk path must actually have run, or the comparison proves nothing.
	if bulkPeriods == 0 {
		t.Fatal("no period was applied in bulk")
	}
	t.Logf("%d periods applied in bulk", bulkPeriods)
}
