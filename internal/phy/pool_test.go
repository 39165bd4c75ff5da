package phy

import (
	"sync"
	"testing"

	"netfi/internal/sim"
)

// Two kernels driven by two goroutines — two campaign workers, or two shard
// kernels inside a window — must share nothing on the delivery path: once
// each kernel's lists are warm, 1e5 send/deliver/release cycles apiece leave
// the shared depot untouched. Run under -race this also pins that the path
// holds no unsynchronized shared state.
func TestKernelPoolsIsolated(t *testing.T) {
	const cycles = 100_000
	type world struct {
		k     *sim.Kernel
		sink  *poolSink
		cycle func()
	}
	worlds := make([]world, 2)
	for i := range worlds {
		k := sim.NewKernel(int64(i + 1))
		sink := &poolSink{pool: PoolOf(k)}
		worlds[i] = world{k: k, sink: sink, cycle: linkCycle(k, NewLink(k, allocLink, sink))}
		for j := 0; j < 100; j++ {
			worlds[i].cycle()
		}
	}
	before := depotOps()
	var wg sync.WaitGroup
	for i := range worlds {
		w := worlds[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < cycles; j++ {
				w.cycle()
			}
		}()
	}
	wg.Wait()
	if got := depotOps() - before; got != 0 {
		t.Errorf("two warmed kernels reached the shared depot %d times in steady state, want 0", got)
	}
	for i, w := range worlds {
		if want := uint64(100+cycles) * 66; w.sink.chars != want {
			t.Errorf("world %d delivered %d characters, want %d", i, w.sink.chars, want)
		}
	}
}

// A fabric's transmitters run in phase, so a kernel's swing in buffers in
// flight runs to thousands, far past its local list. Kernel pools must then
// trade with the shared depot tradeBatch buffers per lock, not one: the
// depot operations per round are bounded by the swing over the batch, and
// once warm the trades allocate nothing. Trading one buffer per lock makes
// about twice the swing in operations and fails both cases.
func TestPoolTradesInBatches(t *testing.T) {
	const swing, warm, rounds = 1000, 16, 20
	class := burstClassFor(32)
	// check runs round warm times, then rounds more, and holds every
	// measured round to at most bound depot operations and the measured
	// rounds to zero allocations.
	check := func(t *testing.T, round func(), bound float64) {
		for i := 0; i < warm; i++ {
			round()
		}
		worst := uint64(0)
		allocs := testing.AllocsPerRun(rounds, func() {
			before := depotOps()
			round()
			worst = max(worst, depotOps()-before)
		})
		if float64(worst) > bound {
			t.Errorf("a round of %d buffers made %d depot operations, want at most %.1f", swing, worst, bound)
		}
		if !raceEnabled && allocs != 0 {
			t.Errorf("a warmed round allocates %.2f objects, want 0", allocs)
		}
	}

	// Kernel A takes the bursts, kernel B releases them: a cross-shard
	// cable. A is driven by the test's goroutine and B by one of its own,
	// handing the batch over on channels, so under -race this also pins
	// that the trades hold no unsynchronized shared state.
	t.Run("two-kernels", func(t *testing.T) {
		a, b := PoolOf(sim.NewKernel(1)), PoolOf(sim.NewKernel(2))
		batch := make([][]Character, swing)
		taken, released, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for range taken {
				for i, buf := range batch {
					b.Release(buf)
					batch[i] = nil
				}
				released <- struct{}{}
			}
		}()
		defer func() {
			close(taken)
			<-done
		}()
		round := func() {
			for i := range batch {
				batch[i] = a.Get(32)
			}
			taken <- struct{}{}
			<-released
		}
		check(t, round, 2*swing/float64(tradeBatch)+2)
		if got := len(b.bursts[class]); got > localBurstCap {
			t.Errorf("releasing kernel holds %d local buffers, want at most the cap %d", got, localBurstCap)
		}
	})

	// One kernel swings the buffers out and back, as a fabric shard does
	// every chunk period.
	t.Run("one-kernel-swing", func(t *testing.T) {
		p := PoolOf(sim.NewKernel(3))
		held := make([][]Character, swing)
		round := func() {
			for i := range held {
				held[i] = p.Get(32)
			}
			for i, buf := range held {
				p.Release(buf)
				held[i] = nil
			}
		}
		check(t, round, 2*float64((swing+tradeBatch-1)/tradeBatch))
	})
}

// recorder is a forkable receiver that keeps what it was delivered and, like
// a real device, hands the buffer back to its kernel's pool.
type recorder struct {
	pool *Pool
	got  []Character
	last []Character // the released buffer, kept so the test can scribble on it
}

func (r *recorder) Receive(chars []Character) {
	r.got = append(r.got, chars...)
	r.last = chars
	r.pool.Release(chars)
}

func (r *recorder) Clone(m *sim.Mapper) *recorder {
	r2 := &recorder{pool: PoolOf(m.Kernel()), got: append([]Character(nil), r.got...)}
	m.Put(r, r2)
	return r2
}

// forkWorld is a warmed one-link world with deliveries pending.
type forkWorld struct {
	k    *sim.Kernel
	link *Link
	rec  *recorder
}

func newForkWorld() *forkWorld {
	k := sim.NewKernel(1)
	rec := &recorder{pool: PoolOf(k)}
	w := &forkWorld{k: k, link: NewLink(k, allocLink, rec), rec: rec}
	linkCycle(k, w.link)() // warm the base's pool
	rec.got = rec.got[:0]
	for i := 0; i < 4; i++ {
		w.link.Send(DataChars([]byte{byte(i), byte(i + 1), byte(i + 2)}))
	}
	return w
}

func (w *forkWorld) fork(t testing.TB) *forkWorld {
	m := sim.NewMapper()
	w2 := &forkWorld{k: w.k.Clone(m)}
	w2.rec = w.rec.Clone(m)
	w2.link = w.link.Clone(m)
	if err := m.Finish(); err != nil {
		t.Error(err)
	}
	return w2
}

// A fork's pending deliveries are copies drawn from the fork kernel's own
// pool: running the fork, scribbling over every buffer it delivered and
// recycling them must leave what the base later delivers untouched.
func TestForkDeliveriesDoNotAliasBase(t *testing.T) {
	base := newForkWorld()
	f := base.fork(t)
	if f.link.pool == base.link.pool || f.link.pool != PoolOf(f.k) {
		t.Fatal("forked link does not use the fork kernel's pool")
	}
	for f.k.Step() {
		buf := f.rec.last[:cap(f.rec.last)]
		for i := range buf {
			buf[i] = 0xFFFF
		}
	}
	// Reuse the scribbled buffers inside the fork as well.
	f.link.Send(DataChars([]byte{0xAA, 0xBB, 0xCC}))
	f.k.Run()

	base.k.Run()
	want := DataChars([]byte{0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5})
	if len(base.rec.got) != len(want) {
		t.Fatalf("base delivered %d characters, want %d", len(base.rec.got), len(want))
	}
	for i := range want {
		if base.rec.got[i] != want[i] {
			t.Fatalf("base character %d = %v, want %v: a fork wrote through a shared buffer", i, base.rec.got[i], want[i])
		}
	}
	if got := f.rec.got; len(got) != len(want)+3 {
		t.Errorf("fork delivered %d characters, want %d", len(got), len(want)+3)
	}
}

// Chaos workers fork one warmed base concurrently. Clone only reads the
// base, and every fork runs on pools of its own, so eight forks cloned and
// run to completion at once must be race-clean and agree.
func TestConcurrentForksShareNoPool(t *testing.T) {
	base := newForkWorld()
	const forks = 8
	results := make([][]Character, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := base.fork(t)
			f.k.Run()
			linkCycle(f.k, f.link)()
			results[i] = f.rec.got
		}()
	}
	wg.Wait()
	for i := 1; i < forks; i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("fork %d delivered %d characters, fork 0 %d", i, len(results[i]), len(results[0]))
		}
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("fork %d diverges from fork 0 at character %d", i, j)
			}
		}
	}
	if len(results[0]) != 12+66 {
		t.Errorf("fork delivered %d characters, want %d", len(results[0]), 12+66)
	}
}

// The kernel-taking spelling schedules on that kernel's pool.
func TestScheduleReceiveUsesKernelPool(t *testing.T) {
	k := sim.NewKernel(1)
	sink := &poolSink{pool: PoolOf(k)}
	ScheduleReceive(k, 5, sink, PoolOf(k).Get(3))
	k.Run()
	if sink.chars != 3 || k.Now() != 5 {
		t.Errorf("delivered %d characters at %v, want 3 at 5ps", sink.chars, k.Now())
	}
	if PoolOf(k).free == nil {
		t.Error("delivery record did not return to the kernel's pool")
	}
}
