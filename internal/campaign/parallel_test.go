package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netfi/internal/sim"
)

func TestRunTrialsOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		got := RunTrials(7, workers, func(i int) int { return i * i })
		if len(got) != 7 {
			t.Fatalf("workers=%d: got %d results, want 7", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: trial %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunTrialsEachTrialRunsOnce(t *testing.T) {
	var counts [20]atomic.Int64
	RunTrials(len(counts), 4, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("trial %d ran %d times, want 1", i, n)
		}
	}
}

func TestRunTrialsWorkersExceedTrials(t *testing.T) {
	got := RunTrials(2, 16, func(i int) int { return i + 10 })
	if !reflect.DeepEqual(got, []int{10, 11}) {
		t.Fatalf("got %v, want [10 11]", got)
	}
}

func TestWorkerCountClamp(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{n: 3, workers: 64, want: 3},  // never more goroutines than trials
		{n: 1, workers: 8, want: 1},   // single trial runs inline
		{n: 100, workers: 4, want: 4}, // plenty of trials: keep the pool
		{n: 5, workers: 0, want: 1},   // zero/negative means serial
		{n: 5, workers: -2, want: 1},
	}
	for _, c := range cases {
		if got := workerCount(c.n, c.workers); got != c.want {
			t.Errorf("workerCount(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestRunTrialsNoIdleWorkers observes the pool from inside the trials: with
// far more workers requested than trials, the peak number of concurrently
// running trials — and therefore spawned workers — must not exceed the
// trial count.
func TestRunTrialsNoIdleWorkers(t *testing.T) {
	const trials = 3
	var running, peak atomic.Int64
	var wait sync.WaitGroup
	wait.Add(trials)
	RunTrials(trials, 64, func(i int) struct{} {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Hold every trial until all have started, so a pool larger
		// than the trial count would be caught red-handed.
		wait.Done()
		wait.Wait()
		running.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p != trials {
		t.Fatalf("peak concurrent trials = %d, want %d", p, trials)
	}
}

func TestRunTrialsZeroTrials(t *testing.T) {
	if got := RunTrials(0, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

func TestRunTrialsPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
					return
				}
				if s, ok := r.(string); workers > 1 && (!ok || !strings.Contains(s, "boom")) {
					t.Errorf("workers=%d: panic value %v does not mention the cause", workers, r)
				}
			}()
			RunTrials(6, workers, func(i int) int {
				if i == 3 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

// TestRunTrialsErrIsolatesPanics is the chaos-sweep contract: a panicking
// trial surfaces as an error at its own index while every other trial
// completes — one pathological fork must never kill a campaign or take a
// worker down with it.
func TestRunTrialsErrIsolatesPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, errs := RunTrialsErr(8, workers, func(i int) int {
			if i == 2 || i == 5 {
				panic(fmt.Sprintf("boom %d", i))
			}
			return i * 10
		})
		if len(out) != 8 || len(errs) != 8 {
			t.Fatalf("workers=%d: got %d results, %d errors, want 8 of each",
				workers, len(out), len(errs))
		}
		for i := 0; i < 8; i++ {
			if i == 2 || i == 5 {
				if errs[i] == nil {
					t.Errorf("workers=%d: trial %d panicked but has no error", workers, i)
				} else if !strings.Contains(errs[i].Error(), fmt.Sprintf("boom %d", i)) {
					t.Errorf("workers=%d: trial %d error %q does not mention the cause",
						workers, i, errs[i])
				}
				if out[i] != 0 {
					t.Errorf("workers=%d: panicked trial %d left result %d, want zero",
						workers, i, out[i])
				}
				continue
			}
			if errs[i] != nil {
				t.Errorf("workers=%d: healthy trial %d got error %v", workers, i, errs[i])
			}
			if out[i] != i*10 {
				t.Errorf("workers=%d: trial %d = %d, want %d", workers, i, out[i], i*10)
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", DefaultWorkers())
	}
}

// TestResilienceParallelMatchesSerial is the determinism guard: the parallel
// runner must produce byte-identical campaign output to the serial one for
// the same seed. CI runs this under -race, which also proves no trial state
// (kernels, RNGs, testbeds) leaks across worker goroutines.
func TestResilienceParallelMatchesSerial(t *testing.T) {
	opts := ResilienceOptions{Seed: 7, Trials: 4, Messages: 3, Gap: 2 * sim.Millisecond}
	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 4

	want := RunResilience(serial)
	got := RunResilience(parallel)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel result differs from serial:\n got %+v\nwant %+v", got, want)
	}
	if fs, fp := FormatResilience(want), FormatResilience(got); fs != fp {
		t.Fatalf("formatted triage tables differ:\n-- serial --\n%s\n-- parallel --\n%s", fs, fp)
	}
}

// TestParallelSweepRace runs small parallel sweeps of the experiment suites
// whose fan-out had the most shared-state risk. Under `go test -race` this is
// the audit for rand.Rand crossing goroutines: RunTable2 draws interrupt
// phases from one kernel RNG, which must be drained before the fan-out.
func TestParallelSweepRace(t *testing.T) {
	t2s := RunTable2(SectionOptions{Seed: 3, Scale: 0.025, Workers: 1})
	t2p := RunTable2(SectionOptions{Seed: 3, Scale: 0.025, Workers: 4})
	if !reflect.DeepEqual(t2s, t2p) {
		t.Errorf("Table2 parallel differs from serial:\n got %+v\nwant %+v", t2p, t2s)
	}

	s434s := RunSec434(SectionOptions{Seed: 5, Workers: 1})
	s434p := RunSec434(SectionOptions{Seed: 5, Workers: 2})
	if !reflect.DeepEqual(s434s, s434p) {
		t.Errorf("Sec434 parallel differs from serial:\n got %+v\nwant %+v", s434p, s434s)
	}
}
