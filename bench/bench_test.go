package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/meter"
	"netfi/bench/internal/spec"
	"netfi/bench/internal/stats"
	"netfi/bench/internal/workload"
)

func TestStatsHelpers(t *testing.T) {
	v := []float64{9, 1, 4, 7, 2, 10, 3, 8, 6, 5} // 1..10 shuffled
	if m := stats.Median(v); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if m := stats.Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := stats.Quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := stats.Spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = stats.Quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 5 = %v, %v, want 1.5, 12", q1, q3)
	}
	if lo, hi := stats.MinMax(v); lo != 1 || hi != 10 {
		t.Errorf("minmax = %v, %v", lo, hi)
	}
	if stats.Median(nil) != 0 || stats.Spread(nil) != 0 || stats.Spread([]float64{4}) != 0 {
		t.Error("empty and single-sample inputs must read 0")
	}
}

func TestRegistryWithinLimits(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !spec.NameRE.MatchString(n) || len(n) > spec.MaxNameLen {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,%d}", n, spec.MaxNameLen)
		}
		if seen[n] {
			t.Errorf("name %q registered twice", n)
		}
		seen[n] = true
	}
	if n := len(workload.All); n < 2 || n > spec.MaxWorkloads {
		t.Errorf("%d workloads, want 2..%d", n, spec.MaxWorkloads)
	}
	for _, w := range workload.All {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
		if w.Threads < 1 || w.Threads > benchThreads {
			t.Errorf("%s: %d threads, the benchmark pins GOMAXPROCS=%d", w.Name, w.Threads, benchThreads)
		}
	}
	if n := len(spec.EndToEndMetrics); n < 1 || n > spec.MaxEndToEnd {
		t.Errorf("%d end-to-end metrics, want 1..%d", n, spec.MaxEndToEnd)
	}
	for _, m := range spec.EndToEndMetrics {
		name(m.Name)
		if !spec.UnitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > spec.MaxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, spec.MaxBound)
		}
	}
	setup, ok := spec.EndToEndByName("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != spec.Lower {
		t.Errorf("setup_s must be registered in seconds, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEndMetrics {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
	layers := spec.PerLayerMetrics()
	if n := len(layers); n < 1 || n > spec.MaxPerLayer {
		t.Errorf("%d per-layer metrics, want 1..%d", n, spec.MaxPerLayer)
	}
	for _, m := range layers {
		name(m.Name)
		if !spec.UnitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", m.Name)
		}
	}
}

// benchmarkJSON mirrors /BENCHMARK.json; DisallowUnknownFields makes the
// key set exact.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONAgreesWithRegistry(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workload.All) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d registered", len(b.Workloads), len(workload.All))
	}
	for i, w := range workload.All {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, registry has %s / %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(spec.EndToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d registered", len(b.EndToEnd), len(spec.EndToEndMetrics))
	}
	for i, m := range spec.EndToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != string(m.Better) || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, registry has %+v", i, got, m)
		}
	}
	layers := spec.PerLayerMetrics()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d registered", len(b.PerLayer), len(layers))
	}
	for i, m := range layers {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != string(m.Better) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, registry has %+v", i, got, m)
		}
	}
}

func quickOptions(seed int64, trace bool) runOptions {
	return runOptions{
		seed: seed, sizes: gen.Quick(), reps: 2, seconds: 1, trace: trace, ladder: trace,
		setupBudget: 20 * time.Millisecond, ladderBudget: 2 * time.Millisecond, log: io.Discard,
	}
}

// The -quick harness run: every workload, two repetitions, everything the
// full run reports must be there and every check must pass.
func TestQuickHarness(t *testing.T) {
	results := map[string]WorkloadResult{}
	o := quickOptions(42, false)
	for _, w := range workload.All {
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		results[w.Name] = res
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", w.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if res.Reps != 2 {
			t.Errorf("%s: %d repetitions, want 2", w.Name, res.Reps)
		}
		for _, m := range spec.EndToEndMetrics {
			v, ok := res.EndToEnd[m.Name]
			if !ok || v.N == 0 || !(v.Median > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.Name, m.Name, v)
			}
		}
	}
	if a, b := results["fabric_flood"].Fingerprint, results["fabric_sharded"].Fingerprint; a != b {
		t.Errorf("fabric_sharded simulated something else than fabric_flood: %s vs %s", b, a)
	}
}

// A traced run reports every registered per-layer metric, including the
// whole ladder, and writes its spans.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := workload.ByName("testbed_stream")
	o := quickOptions(42, true)
	o.tracePath = t.TempDir() + "/trace.json"
	res, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("problems: %v", res.Problems)
	}
	for _, m := range spec.PerLayerMetrics() {
		if _, ok := res.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", m.Name)
		}
	}
	for _, m := range spec.LadderMetrics {
		if v := res.PerLayer[m.Name].Median; !(v > 0) && m.Name != "sim.allocs_per_event" {
			t.Errorf("ladder metric %s = %v, want > 0", m.Name, v)
		}
	}
	for _, n := range []string{"span.setup_build_ms", "span.setup_compile_ms", "span.arm_ms", "span.run_ms", "span.drain_ms", "span.collect_ms", "workload.events", "workload.symbols"} {
		if v := res.PerLayer[n].Median; !(v > 0) {
			t.Errorf("%s = %v on testbed_stream, want > 0", n, v)
		}
	}
	var spans []meter.Span
	if err := readJSON(o.tracePath, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]meter.Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.EndNs < s.StartNs || s.Workload != "testbed_stream" {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, s := range spans {
		if s.Name == "NewTestbed" || s.Name == "rules.Compile" {
			if p, ok := byID[s.Parent]; !ok || p.Name != "setup" || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
				t.Errorf("span %s is not inside a setup span", s.Name)
			}
		}
	}
}

// The seed reaches the generators and nothing else: equal seeds give equal
// simulations, the held-out seed gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	rep := func(w workload.Workload, seed int64) string {
		out := w.Rep(gen.New(seed, gen.Quick()), w.Threads, &meter.Meter{})
		if out.Failed != 0 || len(out.Problems) > 0 {
			t.Errorf("%s seed %d: failed=%d problems=%v", w.Name, seed, out.Failed, out.Problems)
		}
		return out.Fingerprint
	}
	for _, w := range workload.All {
		a, b, held := rep(w, 42), rep(w, 42), rep(w, 7)
		if a != b {
			t.Errorf("%s: seed 42 twice gave %s and %s", w.Name, a, b)
		}
		if a == held {
			t.Errorf("%s: seeds 42 and 7 gave the same fingerprint %s", w.Name, a)
		}
	}
	if reflect.DeepEqual(gen.RuleSet(42), gen.RuleSet(7)) {
		t.Error("seeds 42 and 7 generated the same rule set")
	}
}

// The 64-rule set stays armed and silent on both seeds, over a run long
// enough for the sequence stamps and checksums to cycle.
func TestRuleSetNeverFires(t *testing.T) {
	w, _ := workload.ByName("testbed_stream")
	for _, seed := range []int64{42, 7} {
		rs := gen.RuleSet(seed)
		if len(rs) != gen.RuleCount {
			t.Fatalf("seed %d: %d rules", seed, len(rs))
		}
		pairs := map[[2]uint16]bool{}
		for _, r := range rs {
			if len(r.Steps) != 2 || r.Steps[0].Sym < 0x190 || r.Steps[1].Sym == 0x100|'N' {
				t.Errorf("seed %d rule %d: steps %+v outside the silent alphabet", seed, r.ID, r.Steps)
			}
			pairs[[2]uint16{r.Steps[0].Sym, r.Steps[1].Sym}] = true
		}
		if len(pairs) != gen.RuleCount {
			t.Errorf("seed %d: only %d distinct pairs", seed, len(pairs))
		}
		sizes := gen.Quick()
		sizes.StreamRun *= 5
		out := w.Rep(gen.New(seed, sizes), 1, &meter.Meter{})
		if out.Failed != 0 || len(out.Problems) > 0 || out.Ops == 0 {
			t.Errorf("seed %d: ops=%d failed=%d problems=%v", seed, out.Ops, out.Failed, out.Problems)
		}
	}
}

func TestCheckerCountsDifferingRecords(t *testing.T) {
	base := workload.Outcome{Attempted: 3, Fingerprint: "a", Records: []string{"x", "y", "z"}}
	c := &checker{base: &base, baseName: "the reference"}
	same := base
	if n, p := c.failedOps(&same); n != 0 || len(p) != 0 {
		t.Errorf("identical outcome: %d failed, %v", n, p)
	}
	diff := workload.Outcome{Attempted: 3, Fingerprint: "b", Records: []string{"x", "Y", "Z"}}
	if n, _ := c.failedOps(&diff); n != 2 {
		t.Errorf("two differing records counted as %d failed ops", n)
	}
	opaque := workload.Outcome{Attempted: 5, Fingerprint: "b"}
	if n, _ := c.failedOps(&opaque); n != 5 {
		t.Errorf("a differing fingerprint without records must fail all 5 ops, got %d", n)
	}
	first := &checker{}
	if n, _ := first.failedOps(&workload.Outcome{Attempted: 4, Failed: 1, Fingerprint: "q"}); n != 1 {
		t.Errorf("own failures must carry over, got %d", n)
	}
	if n, _ := first.failedOps(&workload.Outcome{Attempted: 4, Fingerprint: "r"}); n != 4 {
		t.Errorf("a repetition that differs from the first must fail whole, got %d", n)
	}
}

func TestJudge(t *testing.T) {
	ops, _ := spec.EndToEndByName("ops_per_s")
	cpu, _ := spec.EndToEndByName("cpu_ns_per_op")
	tight := func(c float64) Metric {
		return newMetric("x", []float64{c * 0.995, c * 0.998, c, c * 1.002, c * 1.005})
	}
	noisy := func(c float64) Metric {
		return newMetric("x", []float64{c * 0.6, c * 0.8, c, c * 1.2, c * 1.4})
	}
	cases := []struct {
		m    spec.EndToEnd
		a, b Metric
		want verdict
	}{
		{ops, tight(100), tight(100.5), same},
		{ops, tight(100), tight(100 * (1 - 2*ops.Bound)), worse},
		{ops, tight(100), tight(100 * (1 + 2*ops.Bound)), better},
		{cpu, tight(100), tight(100 * (1 + 2*cpu.Bound)), worse},
		{cpu, tight(100), tight(100 * (1 - 2*cpu.Bound)), better},
		{ops, noisy(100), noisy(95), unresolved},
		{ops, noisy(100), tight(500), better}, // every B run beats every A run
	}
	for i, c := range cases {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s A=%v B=%v: verdict %s, want %s", i, c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareRejects(t *testing.T) {
	mk := func(scale float64, fp string, failed uint64) *ResultFile {
		f := &ResultFile{Seed: 42}
		for _, w := range workload.All {
			r := WorkloadResult{Workload: w.Name, Attempted: 100, Failed: failed, Fingerprint: fp, EndToEnd: map[string]Metric{}}
			for _, m := range spec.EndToEndMetrics {
				v := 100.0
				if m.Name == "ops_per_s" {
					v *= scale
				}
				r.EndToEnd[m.Name] = newMetric(m.Unit, []float64{v, v, v})
			}
			f.Workloads = append(f.Workloads, r)
		}
		return f
	}
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = stdout }()
	check := func(what string, b *ResultFile, fpOK, want bool) {
		t.Helper()
		got, err := compare(mk(1, "f", 0), b, fpOK)
		if err != nil || got != want {
			t.Errorf("%s: reject=%v err=%v, want reject=%v", what, got, err, want)
		}
	}
	check("identical", mk(1, "f", 0), false, false)
	check("slower", mk(0.5, "f", 0), false, true)
	check("more failed ops", mk(1, "f", 3), false, true)
	check("changed fingerprint", mk(1, "g", 0), false, true)
	check("changed fingerprint, allowed", mk(1, "g", 0), true, false)
	other := mk(1, "f", 0)
	other.Seed = 7
	if _, err := compare(mk(1, "f", 0), other, false); err == nil {
		t.Error("comparing different seeds must be an error")
	}
}
