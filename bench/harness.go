package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/ladder"
	"netfi/bench/internal/meter"
	"netfi/bench/internal/spec"
	"netfi/bench/internal/stats"
	"netfi/bench/internal/workload"
)

// benchThreads is the GOMAXPROCS every benchmark process pins: the two
// CPUs of the box the sizes were calibrated on, and the thread count of the
// two-worker and two-shard workloads.
const benchThreads = 2

// runOptions says how one workload process measures.
type runOptions struct {
	seed  int64
	sizes gen.Sizes
	// reps > 0 fixes the repetition count; otherwise repetitions run
	// until seconds of measuring have passed.
	reps    int
	seconds float64
	// trace adds the traced repetitions and the per-layer metrics; ladder
	// additionally measures the layer ladder in this process.
	trace, ladder bool
	tracePath     string
	setupBudget   time.Duration
	ladderBudget  time.Duration // per ladder metric
	log           io.Writer
}

// repSample is one repetition's measurement.
type repSample struct {
	wall  time.Duration
	delta meter.Counters
	out   workload.Outcome
	peak  float64 // high-water resident set during the repetition, MiB
}

func oneRep(w workload.Workload, in *gen.Inputs, threads int, rec *meter.Recorder) repSample {
	runtime.GC() // every repetition starts from a collected heap
	if rec != nil {
		rec.NextRep()
	}
	// A kernel that refuses the reset leaves the mark covering the whole
	// process: every repetition then reads the same, still valid, peak.
	_ = meter.ResetPeakRSS()
	m := &meter.Meter{Rec: rec}
	out := w.Rep(in, threads, m)
	return repSample{wall: m.Wall, delta: m.Delta, out: out, peak: meter.PeakRSSMiB()}
}

// setupSampler times SetupOnce Go-benchmark style, in batches of
// constructions sized from a warm-up call. Sampling is spread over the run,
// a slice before every repetition, so that a slow stretch of the box colours
// some samples and not the whole metric.
type setupSampler struct {
	w       workload.Workload
	in      *gen.Inputs
	batch   int
	samples []float64
}

func newSetupSampler(w workload.Workload, in *gen.Inputs) *setupSampler {
	t0 := time.Now()
	w.SetupOnce(in) // warm-up; also sizes the batches to about 20 ms
	batch := int(20 * time.Millisecond / (time.Since(t0) + 1))
	if batch < 1 {
		batch = 1
	}
	return &setupSampler{w: w, in: in, batch: batch}
}

// sample times batches until d has passed, at least one, and records the
// slice's median batch: one sample per slice, so setup_s has about as many
// samples as the repetition metrics and the same spread rule applies.
func (s *setupSampler) sample(d time.Duration) {
	var batches []float64
	for start := time.Now(); len(batches) == 0 || time.Since(start) < d; {
		t := time.Now()
		for i := 0; i < s.batch; i++ {
			s.w.SetupOnce(s.in)
		}
		batches = append(batches, time.Since(t).Seconds()/float64(s.batch))
	}
	s.samples = append(s.samples, stats.Median(batches))
}

// checker holds what every repetition is compared against: the one-thread
// reference pass when the workload has one, else the first repetition.
type checker struct {
	base     *workload.Outcome
	baseName string
}

// failedOps returns how many of out's operations count as failed, with the
// reasons.
func (c *checker) failedOps(out *workload.Outcome) (uint64, []string) {
	failed, problems := out.Failed, out.Problems
	if c.base == nil {
		c.base, c.baseName = out, "the first repetition"
		return failed, problems
	}
	if out.Fingerprint != c.base.Fingerprint {
		differing := uint64(0)
		if len(out.Records) > 0 && len(out.Records) == len(c.base.Records) {
			for i := range out.Records {
				if out.Records[i] != c.base.Records[i] {
					differing++
				}
			}
			problems = append(problems, fmt.Sprintf("%d records differ from %s", differing, c.baseName))
		} else {
			// Nothing finer to compare: the whole repetition is suspect.
			differing = out.Attempted
			problems = append(problems, fmt.Sprintf("sim_fingerprint %.12s differs from %s (%.12s)", out.Fingerprint, c.baseName, c.base.Fingerprint))
		}
		failed += differing
	}
	if failed > out.Attempted {
		failed = out.Attempted
	}
	return failed, problems
}

// count adds one checked repetition to the result's operation tally.
func (res *WorkloadResult) count(chk *checker, out *workload.Outcome) {
	failed, problems := chk.failedOps(out)
	res.Attempted += out.Attempted
	res.Failed += failed
	res.Problems = append(res.Problems, problems...)
}

// runWorkload measures one workload in this process.
func runWorkload(w workload.Workload, o runOptions) (WorkloadResult, error) {
	in := gen.New(o.seed, o.sizes)
	res := WorkloadResult{
		Workload: w.Name, Op: w.Op, Threads: w.Threads, Seed: o.seed,
		EndToEnd: map[string]Metric{},
	}
	fmt.Fprintf(o.log, "workload %s (%d thread(s), op = %s, seed %d)\n", w.Name, w.Threads, w.Op, o.seed)

	setup := newSetupSampler(w, in)
	setup.sample(o.setupBudget)

	// Reference pass: the same inputs on one thread. Its records are what
	// the measured repetitions must reproduce byte for byte.
	chk := &checker{}
	var ref *repSample
	if w.Threads > 1 {
		r := oneRep(w, in, 1, nil)
		ref = &r
		chk.base, chk.baseName = &r.out, "the one-thread reference pass"
		res.Problems = append(res.Problems, r.out.Problems...)
	}

	// A traced run splits its time: 0.4 untraced, 0.2 traced, 0.4 ladder.
	untracedFor := o.seconds
	if o.trace {
		untracedFor = 0.4 * o.seconds
	}
	var reps []repSample
	start := time.Now()
	for {
		if o.reps > 0 && len(reps) >= o.reps {
			break
		}
		if o.reps == 0 && len(reps) >= 2 && time.Since(start).Seconds() >= untracedFor {
			break
		}
		setup.sample(o.setupBudget / 2)
		s := oneRep(w, in, w.Threads, nil)
		res.count(chk, &s.out)
		reps = append(reps, s)
	}
	res.Reps = len(reps)
	res.OpsPerRep = reps[0].out.Ops
	res.Fingerprint = reps[0].out.Fingerprint

	var opsPerS, cpuPerOp, allocsPerOp, bytesPerOp, peaks []float64
	for _, s := range reps {
		if s.out.Ops == 0 || s.wall <= 0 {
			res.Problems = append(res.Problems, "a repetition completed no operations")
			continue
		}
		ops := float64(s.out.Ops)
		opsPerS = append(opsPerS, ops/s.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(s.delta.CPU.Nanoseconds())/ops)
		allocsPerOp = append(allocsPerOp, float64(s.delta.Mallocs)/ops)
		bytesPerOp = append(bytesPerOp, float64(s.delta.Bytes)/ops)
		peaks = append(peaks, s.peak)
	}
	res.EndToEnd["ops_per_s"] = newMetric("1/s", opsPerS)
	res.EndToEnd["cpu_ns_per_op"] = newMetric("ns", cpuPerOp)
	res.EndToEnd["allocs_per_op"] = newMetric("count", allocsPerOp)
	res.EndToEnd["alloc_bytes_per_op"] = newMetric("B", bytesPerOp)
	res.EndToEnd["peak_rss_mb"] = newMetric("MiB", peaks)
	res.EndToEnd["setup_s"] = newMetric("s", setup.samples)

	if o.trace {
		res.PerLayer = perLayer(w, in, o, &res, chk, reps, ref)
	}

	res.Correct = res.Failed == 0 && len(res.Problems) == 0 && res.Attempted > 0
	fmt.Fprintf(o.log, "  %d repetitions of %d ops; ops_failed %d / ops_attempted %d; sim_fingerprint %.16s\n",
		res.Reps, res.OpsPerRep, res.Failed, res.Attempted, res.Fingerprint)
	for _, m := range spec.EndToEndMetrics {
		printMetric(o.log, m.Name, res.EndToEnd[m.Name])
	}
	if o.trace {
		for _, m := range spec.PerLayerMetrics() {
			if v, ok := res.PerLayer[m.Name]; ok {
				printMetric(o.log, m.Name, v)
			}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(o.log, "  CHECK FAILED: %s\n", p)
	}
	return res, nil
}

// perLayer runs the traced repetitions (and the ladder, when asked) and
// assembles the per-layer metrics.
func perLayer(w workload.Workload, in *gen.Inputs, o runOptions, res *WorkloadResult,
	chk *checker, reps []repSample, ref *repSample) map[string]Metric {
	out := map[string]Metric{}
	first := reps[0].out
	walls := make([]float64, len(reps))
	for i, s := range reps {
		walls[i] = s.wall.Seconds()
	}
	medianWall := stats.Median(walls)
	medianOps := res.EndToEnd["ops_per_s"].Median

	refOps := medianOps
	if ref != nil && ref.wall > 0 {
		refOps = float64(ref.out.Ops) / ref.wall.Seconds()
	}
	out["workload.ref_ops_per_s"] = single("1/s", refOps)
	speedup := 0.0
	if refOps > 0 {
		speedup = medianOps / refOps
	}
	out["workload.speedup_vs_ref"] = single("ratio", speedup)

	per := func(count uint64) float64 {
		if count == 0 {
			return 0
		}
		return medianWall * 1e9 / float64(count)
	}
	out["workload.events"] = single("count", float64(first.Events))
	out["workload.symbols"] = single("count", float64(first.Symbols))
	out["workload.ns_per_event"] = single("ns", per(first.Events))
	out["workload.ns_per_symbol"] = single("ns", per(first.Symbols))
	out["fabric.windows"] = single("count", float64(first.Windows))
	out["fabric.exchanged"] = single("count", float64(first.Exchanged))
	imbalance := 0.0
	if n := len(first.ShardEvents); n > 0 && first.Events > 0 {
		busiest := uint64(0)
		for _, e := range first.ShardEvents {
			if e > busiest {
				busiest = e
			}
		}
		imbalance = float64(busiest) * float64(n) / float64(first.Events)
	}
	out["fabric.shard_imbalance"] = single("ratio", imbalance)

	var gcShare, gcCycles, mutexShare []float64
	for _, s := range reps {
		if cpu := s.delta.CPU.Seconds(); cpu > 0 {
			gcShare = append(gcShare, s.delta.GCCPU/cpu)
		}
		gcCycles = append(gcCycles, float64(s.delta.GCCycles))
		if s.wall > 0 {
			mutexShare = append(mutexShare, s.delta.MutexWait/(s.wall.Seconds()*float64(w.Threads)))
		}
	}
	out["runtime.gc_cpu_share"] = newMetric("ratio", gcShare)
	out["runtime.gc_cycles"] = newMetric("count", gcCycles)
	out["runtime.mutex_wait_share"] = newMetric("ratio", mutexShare)

	// Traced repetitions: the same work with the span recorder on.
	rec := meter.NewRecorder(w.Name)
	var tracedWalls []float64
	start := time.Now()
	for {
		s := oneRep(w, in, w.Threads, rec)
		res.count(chk, &s.out)
		tracedWalls = append(tracedWalls, s.wall.Seconds())
		if o.reps > 0 || time.Since(start).Seconds() >= 0.2*o.seconds {
			break
		}
	}
	overhead := 0.0
	if medianWall > 0 {
		overhead = stats.Median(tracedWalls)/medianWall - 1
	}
	out["trace.overhead_share"] = single("ratio", overhead)
	out["trace.recorder_ms"] = single("ms", rec.SelfTime().Seconds()*1e3/float64(len(tracedWalls)))
	for name, v := range spanMetrics(rec.Spans()) {
		out[name] = v
	}
	if o.tracePath != "" {
		if err := rec.WriteFile(o.tracePath); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("trace file: %v", err))
		} else {
			res.TraceFile = o.tracePath
		}
	}

	if o.ladder {
		values := ladder.Run(o.ladderBudget, in)
		for _, m := range spec.LadderMetrics {
			out[m.Name] = single(m.Unit, values[m.Name])
		}
	}
	return out
}

// spanMetrics folds the recorded spans into the span.* metrics: per span
// kind, the median over the traced repetitions, in milliseconds. A phase a
// workload does not have reads 0.
func spanMetrics(spans []meter.Span) map[string]Metric {
	kinds := map[string]string{
		"NewFabricTestbed": "span.setup_build_ms",
		"NewTestbed":       "span.setup_build_ms",
		"rules.Compile":    "span.setup_compile_ms",
		"arm":              "span.arm_ms",
		"run":              "span.run_ms",
		"drain":            "span.drain_ms",
		"collect":          "span.collect_ms",
	}
	samples := map[string][]float64{}
	for _, s := range spans {
		ms := float64(s.EndNs-s.StartNs) / 1e6
		if s.Name == "setup" {
			samples["span.setup_self_ms"] = append(samples["span.setup_self_ms"], float64(meter.SelfNs(spans, s.ID))/1e6)
		} else if name, ok := kinds[s.Name]; ok {
			samples[name] = append(samples[name], ms)
		}
	}
	out := map[string]Metric{}
	for _, m := range spec.WorkloadMetrics {
		if strings.HasPrefix(m.Name, "span.") {
			out[m.Name] = newMetric(m.Unit, samples[m.Name])
		}
	}
	return out
}
