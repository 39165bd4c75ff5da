// Package meter holds the benchmark's measuring instruments: process
// counters read around a timed call, the peak resident set, and an
// in-memory span recorder. All of it runs in the benchmark's own files,
// around calls into the program; nothing inside netfi is instrumented.
package meter

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Counters is one reading of the process-wide accounting the benchmark
// differences around a call.
type Counters struct {
	CPU       time.Duration // user+system, getrusage(RUSAGE_SELF)
	Mallocs   uint64
	Bytes     uint64
	GCCycles  uint32
	GCCPU     float64 // seconds, /cpu/classes/gc/total (refreshed per GC cycle)
	MutexWait float64 // seconds, /sync/mutex/wait/total
}

var metricSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// Read takes one reading. ReadMemStats stops the world, so readings are
// taken outside the wall-clock interval they bracket.
func Read() Counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := append([]metrics.Sample(nil), metricSamples...)
	metrics.Read(s)
	c := Counters{
		CPU:      tv(ru.Utime) + tv(ru.Stime),
		Mallocs:  ms.Mallocs,
		Bytes:    ms.TotalAlloc,
		GCCycles: ms.NumGC,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.GCCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.MutexWait = s[1].Value.Float64()
	}
	return c
}

// Sub returns c - o, field by field.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		CPU:       c.CPU - o.CPU,
		Mallocs:   c.Mallocs - o.Mallocs,
		Bytes:     c.Bytes - o.Bytes,
		GCCycles:  c.GCCycles - o.GCCycles,
		GCCPU:     c.GCCPU - o.GCCPU,
		MutexWait: c.MutexWait - o.MutexWait,
	}
}

func (c *Counters) add(o Counters) {
	c.CPU += o.CPU
	c.Mallocs += o.Mallocs
	c.Bytes += o.Bytes
	c.GCCycles += o.GCCycles
	c.GCCPU += o.GCCPU
	c.MutexWait += o.MutexWait
}

// ResetPeakRSS restarts the kernel's high-water mark of the resident set
// (Linux: "5" into /proc/self/clear_refs), so that the next PeakRSSMiB reads
// the peak since now rather than since process start. Where the kernel
// refuses, the mark simply keeps covering the whole process, which is still
// a peak; the error is returned for the caller to mention.
func ResetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// PeakRSSMiB is the high-water resident set since the last reset: VmHWM
// from /proc/self/status, falling back to getrusage.
func PeakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Span is one recorded interval. Times are nanoseconds since the recorder
// started; Parent is the enclosing span's ID, or -1.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Counter snapshots at both edges.
	StartMallocs   uint64  `json:"start_mallocs"`
	EndMallocs     uint64  `json:"end_mallocs"`
	StartGCCycles  uint32  `json:"start_gc_cycles"`
	EndGCCycles    uint32  `json:"end_gc_cycles"`
	StartMutexWait float64 `json:"start_mutex_wait_s"`
	EndMutexWait   float64 `json:"end_mutex_wait_s"`
}

// Recorder keeps spans in memory until WriteFile.
type Recorder struct {
	workload string
	t0       time.Time
	rep      int
	spans    []Span
	open     []int
	self     time.Duration // time spent inside begin and end
}

// NewRecorder starts a recorder for one workload.
func NewRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// NextRep tags the spans that follow with the next repetition number.
func (r *Recorder) NextRep() { r.rep++ }

// SelfTime is how long the recorder itself has run: the cost of tracing,
// measured rather than inferred from two noisy runs.
func (r *Recorder) SelfTime() time.Duration { return r.self }

func (r *Recorder) begin(name string) int {
	entered := time.Now()
	c := Read()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: r.rep,
		StartMallocs: c.Mallocs, StartGCCycles: c.GCCycles, StartMutexWait: c.MutexWait,
	})
	r.open = append(r.open, id)
	now := time.Now()
	r.spans[id].StartNs = now.Sub(r.t0).Nanoseconds()
	r.self += now.Sub(entered)
	return id
}

func (r *Recorder) end(id int) {
	entered := time.Now()
	s := &r.spans[id]
	s.EndNs = entered.Sub(r.t0).Nanoseconds()
	c := Read()
	s.EndMallocs, s.EndGCCycles, s.EndMutexWait = c.Mallocs, c.GCCycles, c.MutexWait
	r.open = r.open[:len(r.open)-1]
	r.self += time.Since(entered)
}

// Spans returns what has been recorded.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfNs is a span's duration minus the part its children cover.
func SelfNs(spans []Span, id int) int64 {
	self := spans[id].EndNs - spans[id].StartNs
	for _, s := range spans {
		if s.Parent == id {
			self -= s.EndNs - s.StartNs
		}
	}
	return self
}

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Meter is what a workload repetition is handed: Span marks a phase, Timed
// marks a phase that counts toward the end-to-end metrics. With a nil
// recorder both only run the function (and Timed still measures).
type Meter struct {
	Rec   *Recorder
	Wall  time.Duration
	Delta Counters
}

// Span runs fn inside a span named name.
func (m *Meter) Span(name string, fn func()) {
	if m.Rec == nil {
		fn()
		return
	}
	id := m.Rec.begin(name)
	fn()
	m.Rec.end(id)
}

// Timed runs fn inside a span and adds its wall time and counter deltas to
// the meter. The counters are read outside the wall-clock interval.
func (m *Meter) Timed(name string, fn func()) {
	m.Span(name, func() {
		c0 := Read()
		t0 := time.Now()
		fn()
		m.Wall += time.Since(t0)
		m.Delta.add(Read().Sub(c0))
	})
}
