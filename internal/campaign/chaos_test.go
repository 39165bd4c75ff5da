package campaign

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"netfi/internal/sim"
)

// chaosTestOptions keeps equivalence trials small: 4 messages at 5 ms
// pacing bounds each trial's horizon while still leaving room for every
// fault kind to land mid-conversation.
func chaosTestOptions(seed int64, forks int) ChaosOptions {
	return ChaosOptions{
		Seed:     seed,
		Forks:    forks,
		MaxK:     3,
		Messages: 4,
		Gap:      5 * sim.Millisecond,
	}
}

// TestForkEquivalence is the chaos engine's gate: a trial run on a fork of
// the warmed base must be byte-identical — same event order, same STAT
// counters, same detection axis, same full-world fingerprint — to the
// same plan run on a freshly built, identically warmed testbed. 30
// seed × plan combinations, spanning k = 1..3 and every fault kind;
// alternate seeds pre-arm the rule engine so forks also carry live
// executor, prefilter, and capture state (with per-rule counters and
// capture totals folded into the fingerprint). On a mismatch both worlds'
// texts are rendered again and their first differing lines printed.
func TestForkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fork equivalence sweep is long")
	}
	combos := 0
	for seed := int64(1); combos < 30; seed++ {
		opts := chaosTestOptions(seed*7919, 3)
		opts.ArmedRules = seed%2 == 0
		plans := GenerateForkPlans(opts)
		base := newChaosBase(opts.Seed, opts)
		for _, plan := range plans {
			combos++
			w := new(forkWorld)
			forked := runForkTrialForTest(t, base, w, plan, opts)
			rb := newChaosBase(opts.Seed, opts)
			rebuilt := runChaosTrial(rb, plan, opts)
			if forked != rebuilt {
				t.Errorf("seed %d plan %d (%s): fork and rebuild diverge",
					opts.Seed, plan.ID, plan)
				diffWorlds(t, &w.world, rb)
				t.Errorf("fork:    %+v", forked)
				t.Errorf("rebuild: %+v", rebuilt)
				return
			}
		}
	}
}

func runForkTrialForTest(t *testing.T, base *chaosBase, w *forkWorld, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("fork trial %d (%s) panicked: %v", plan.ID, plan, r)
		}
	}()
	return runForkChaosTrialIn(base, w, plan, opts)
}

// runForkChaosTrial cuts a fork from the warmed base into a new world and
// runs the plan on it.
func runForkChaosTrial(base *chaosBase, plan ForkPlan, opts ChaosOptions) ChaosTrial {
	return runForkChaosTrialIn(base, new(forkWorld), plan, opts)
}

// fork cuts a fork of the base into a new, empty world.
func (b *chaosBase) fork() (*chaosBase, error) {
	w := new(forkWorld)
	if err := b.forkInto(w); err != nil {
		return nil, err
	}
	return &w.world, nil
}

// diffWorlds renders the fingerprint texts of a fork's and a rebuild's
// worlds after their trials and prints where they differ.
func diffWorlds(t *testing.T, fork, rebuild *world) {
	t.Helper()
	diffFingerprints(t, chaosFingerprint(fork.tb, fork.mon, fork.rels),
		chaosFingerprint(rebuild.tb, rebuild.mon, rebuild.rels))
}

func diffFingerprints(t *testing.T, a, b string) {
	t.Helper()
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	shown := 0
	for i := 0; i < n && shown < 8; i++ {
		if al[i] != bl[i] {
			t.Errorf("fingerprint line %d:\n  fork:    %s\n  rebuild: %s", i, al[i], bl[i])
			shown++
		}
	}
	if len(al) != len(bl) {
		t.Errorf("fingerprint length: fork %d lines, rebuild %d lines", len(al), len(bl))
	}
}

// The armed-rules base must actually carry live rule-engine state into the
// fork point — matched counters and completed captures — or the armed fork
// equivalence combos would be vacuous.
func TestChaosArmedBaseCarriesRuleState(t *testing.T) {
	opts := chaosTestOptions(31337, 1)
	opts.ArmedRules = true
	base := newChaosBase(opts.Seed, opts)
	e := base.tb.Injector.Engine(DirOutbound)
	if got := len(e.Rules()); got != 4 {
		t.Fatalf("armed base has %d rules, want 4", got)
	}
	if _, f60, _ := e.RuleCounters(60); f60 != 1 {
		t.Errorf("ONCE toggle rule 60 fired %d times during warmup, want 1", f60)
	}
	m61, _, ok := e.RuleCounters(61)
	if !ok || m61 == 0 {
		t.Errorf("payload-pair rule 61 never matched during warmup (matches=%d ok=%v)", m61, ok)
	}
	if m63, _, _ := e.RuleCounters(63); m63 != 0 {
		t.Errorf("never-match rule 63 matched %d times", m63)
	}
	if _, _, injections := e.Stats(); injections == 0 {
		t.Error("toggle rule produced no injection during warmup")
	}
	if len(e.Capture().Events()) == 0 {
		t.Error("the warm injection completed no capture event")
	}
}

// TestChaosBaseCarriesNoTimerCorpses guards what a fork costs: Kernel.Clone
// copies every queued event, canceled or not. A timer that left one
// canceled event per pet put 509 events in this base for 5 pending, and
// every fork copied, mapped and then swept them away.
func TestChaosBaseCarriesNoTimerCorpses(t *testing.T) {
	for _, armed := range []bool{false, true} {
		opts := chaosTestOptions(31337, 1)
		opts.ArmedRules = armed
		base := newChaosBase(opts.Seed, opts)
		queued, pending := base.tb.K.Queued(), base.tb.K.Pending()
		if queued >= 64 {
			t.Errorf("armed=%v: warmed base queues %d events for %d pending; a fork copies them all", armed, queued, pending)
		}
		f, err := base.fork()
		if err != nil {
			t.Fatalf("armed=%v: fork: %v", armed, err)
		}
		if q, p := f.tb.K.Queued(), f.tb.K.Pending(); q != queued || p != pending {
			t.Errorf("armed=%v: fork queues %d events (%d pending), base %d (%d)", armed, q, p, queued, pending)
		}
	}
}

// TestForkAllocs pins what cutting a fork allocates, first into an empty
// world and then, in steady state, into the world an earlier fork of the
// same base filled and a trial ran on. The first fork builds the world:
// 208 and 215 objects (211 and 218 while the test bed's switch and cables
// sat in a network container with a name-keyed cable map; 219 armed while
// warm traffic started before the
// armed base's last RULE ADD was answered: the base then held two completed
// captures, and a first fork copies each one's context; 186 and 194 while
// every fork was a first fork, into
// a mapper sized from the base's first fork; 327 and 336 before timers,
// tickers, slack buffers and drop counters were copied inside their
// owners, empty rings stopped being copied, and the mapper's table was
// sized; 220 and 228 before cross-references were queued as typed Rebind
// records instead of closures; 194 and 202 while the injector cloned a
// built-in per-identifier packet counter per direction; 188 and 196 while
// each accrual detector's window was a separately allocated slice). A
// steady-state fork reuses every object, array, map, event struct and pool
// of its world and allocates nothing; a change that raises these counts
// makes every chaos scenario pay for it.
func TestForkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, c := range []struct {
		armed        bool
		first, again float64
	}{
		{false, 208, 0},
		{true, 215, 0},
	} {
		opts := chaosTestOptions(31337, 1)
		opts.ArmedRules = c.armed
		base := newChaosBase(opts.Seed, opts)
		got := testing.AllocsPerRun(10, func() {
			if _, err := base.fork(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.first {
			t.Errorf("armed=%v: a first fork allocates %v objects, want %v", c.armed, got, c.first)
		}
		w := new(forkWorld)
		plans := GenerateForkPlans(opts)
		runForkChaosTrialIn(base, w, plans[0], opts)
		got = testing.AllocsPerRun(10, func() {
			if err := base.forkInto(w); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.again {
			t.Errorf("armed=%v: a steady-state fork allocates %v objects, want %v", c.armed, got, c.again)
		}
	}
}

// TestForkedTrialAllocs pins what a chaos trial allocates on a used world,
// fork included, in steady state: only what its ChaosTrial record keeps.
// A node death allocates its plan label; a corrupt rule adds the command
// line the board's decoder assembles from the serial bytes (its response
// is the "OK" before it, its rule set is bound to an automaton from the
// engine's memo, and its detection source is the world's). A crc-stale
// rule whose vector the world has never armed allocates no more than one
// it re-arms: the memo is keyed by the pattern, and the vector is copied
// into the engine's own storage. Before the fingerprint became a digest
// of the world's kept text, each trial also allocated that text (2 and 3
// objects); before the trial's hooks, the serial byte path, the reliable
// transport's queues, rule arming and the labels kept their storage in the
// world, the same trials allocated 34 and 150 objects.
func TestForkedTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	opts := chaosTestOptions(31337, 1)
	base := newChaosBase(opts.Seed, opts)
	crcStale := func(vec int) Fault {
		return Fault{Kind: FaultCorrupt, Family: "crc-stale", Delay: 4 * sim.Millisecond,
			Rule: fmt.Sprintf("RULE ADD 70 MODE ONCE ACT TOGGLE PAT 55 VEC %02X", vec)}
	}
	var fresh []Fault // a new vector on every run, the warm-up's included
	for v := 1; v <= 11; v++ {
		fresh = append(fresh, crcStale(v))
	}
	for _, c := range []struct {
		name   string
		faults []Fault // one per run, in turn
		want   float64
	}{
		{"node death", []Fault{{Kind: FaultNodeDeath, Node: 2, Delay: 4 * sim.Millisecond}}, 1},
		{"gap-drop", []Fault{{Kind: FaultCorrupt, Family: "gap-drop", Delay: 4 * sim.Millisecond,
			Rule: "RULE ADD 70 MODE ONCE ACT DROP PAT C0C"}}, 2},
		{"crc-stale, re-armed vector", []Fault{crcStale(0x3F)}, 2},
		{"crc-stale, new vector", fresh, 2},
	} {
		plans := make([]ForkPlan, len(c.faults))
		for i := range plans {
			plans[i] = ForkPlan{ID: 1, Faults: c.faults[i : i+1]}
		}
		w, run := new(forkWorld), 0
		got := testing.AllocsPerRun(10, func() {
			runForkChaosTrialIn(base, w, plans[run%len(plans)], opts)
			run++
		})
		if got != c.want {
			t.Errorf("%s: a forked trial on a used world allocates %v objects, want %v", c.name, got, c.want)
		}
	}
}

// TestForkedTrialBytes holds what a forked trial allocates, in bytes, on a
// used world over the benchmark's seed-42 plans: after 100 trials warm the
// world, the mean over the next 300 is their labels and command lines,
// 91 B. While every record kept its world's fingerprint text and each new
// crc-stale or route-toggle vector recompiled its rule, the mean was
// 5,671 B.
func TestForkedTrialBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	opts := ChaosOptions{Seed: 81669166, Forks: 400, MaxK: 2}
	plans := GenerateForkPlans(opts)
	base := newChaosBase(opts.Seed, opts)
	w := new(forkWorld)
	for _, p := range plans[:100] {
		runForkChaosTrialIn(base, w, p, opts)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range plans[100:] {
		runForkChaosTrialIn(base, w, p, opts)
	}
	runtime.ReadMemStats(&after)
	mean := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(plans)-100)
	t.Logf("mean %.1f B per forked trial", mean)
	if ceiling := 128.0; mean > ceiling {
		t.Errorf("a forked trial on a used world allocates %.0f B on average, want at most %.0f", mean, ceiling)
	}
}

// TestForkEquivalenceParallel forks the same base concurrently — the clone
// path must be read-only on the source world (the race detector is the
// real assertion here).
func TestForkEquivalenceParallel(t *testing.T) {
	opts := chaosTestOptions(4242, 8)
	opts.Workers = 4
	plans := GenerateForkPlans(opts)
	base := newChaosBase(opts.Seed, opts)
	serial := make([]ChaosTrial, len(plans))
	for i, plan := range plans {
		serial[i] = runForkChaosTrial(base, plan, opts)
	}
	parallel, errs := RunTrialsErr(len(plans), opts.Workers, func(i int) ChaosTrial {
		return runForkChaosTrial(base, plans[i], opts)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("parallel fork %d: %v", i, err)
		}
	}
	for i := range plans {
		if parallel[i] != serial[i] {
			t.Errorf("fork %d: parallel result diverges from serial", i)
		}
	}
}

// TestGenerateForkPlans pins determinism and the k-cycle.
func TestGenerateForkPlans(t *testing.T) {
	opts := ChaosOptions{Seed: 99, Forks: 12, MaxK: 3}
	a := GenerateForkPlans(opts)
	b := GenerateForkPlans(opts)
	if len(a) != 12 {
		t.Fatalf("got %d plans, want 12", len(a))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("plan %d not deterministic: %q vs %q", i, a[i], b[i])
		}
		wantK := 1 + i%3
		if a[i].K() != wantK {
			t.Errorf("plan %d: k = %d, want %d", i, a[i].K(), wantK)
		}
		for _, f := range a[i].Faults {
			if f.Kind == FaultCorrupt && f.Rule == "" {
				t.Errorf("plan %d: corrupt fault without a rule", i)
			}
		}
	}
}

// TestRunChaosSweep smokes the orchestrator end to end: every fork triaged,
// no errors, report renders.
func TestRunChaosSweep(t *testing.T) {
	opts := chaosTestOptions(7, 12)
	opts.Workers = 4
	r := RunChaos(opts)
	if len(r.Trials) != 12 {
		t.Fatalf("got %d trials, want 12", len(r.Trials))
	}
	for _, tr := range r.Trials {
		if tr.Err != "" {
			t.Errorf("fork %d errored: %s", tr.ID, tr.Err)
		}
		if tr.Outcome == "" {
			t.Errorf("fork %d: no outcome", tr.ID)
		}
		if tr.Fingerprint == ([sha256.Size]byte{}) {
			t.Errorf("fork %d: no fingerprint", tr.ID)
		}
	}
	out := FormatChaos(r)
	for _, want := range []string{"chaos sweep", "tally:", "k=1:", "detect:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestChaosNodeDeathDegrades pins the headline scenario: kill a node
// mid-conversation and the transport must abandon that traffic (degraded),
// with the accrual detector noticing the silence.
func TestChaosNodeDeathDegrades(t *testing.T) {
	opts := chaosTestOptions(1, 1)
	base := newChaosBase(opts.Seed, opts)
	plan := ForkPlan{ID: 0, Faults: []Fault{
		{Kind: FaultNodeDeath, Node: 1, Delay: 2 * sim.Millisecond},
	}}
	tr := runForkChaosTrial(base, plan, opts)
	if tr.Outcome != OutcomeDegraded && tr.Outcome != OutcomeHung {
		t.Errorf("node death outcome = %s, want degraded or hung (trial %+v)",
			tr.Outcome, tr)
	}
	if !tr.Detected {
		t.Errorf("node death went undetected (trial %+v)", tr)
	}
}

// TestChaosCleanFork pins the control: a fork with no faults at all must
// deliver everything without retransmission.
func TestChaosCleanFork(t *testing.T) {
	opts := chaosTestOptions(5, 1)
	base := newChaosBase(opts.Seed, opts)
	tr := runForkChaosTrial(base, ForkPlan{ID: 0}, opts)
	if tr.Outcome != OutcomeMasked {
		t.Errorf("clean fork outcome = %s, want masked (trial %+v)",
			tr.Outcome, tr)
	}
	if tr.Delivered != uint64(tr.Sent) {
		t.Errorf("clean fork delivered %d/%d", tr.Delivered, tr.Sent)
	}
}
