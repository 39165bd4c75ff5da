package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"netfi/bench/internal/stats"
)

// Metric is one reported number: the median of its samples, their range,
// and the samples themselves so two result files can be compared run by run.
type Metric struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func newMetric(unit string, samples []float64) Metric {
	lo, hi := stats.MinMax(samples)
	return Metric{Unit: unit, Median: stats.Median(samples), Min: lo, Max: hi, N: len(samples), Samples: samples}
}

func single(unit string, v float64) Metric { return newMetric(unit, []float64{v}) }

// WorkloadResult is everything one workload process measured.
type WorkloadResult struct {
	Workload    string            `json:"workload"`
	Op          string            `json:"op"`
	Threads     int               `json:"threads"`
	Seed        int64             `json:"seed"`
	Reps        int               `json:"reps"`
	OpsPerRep   uint64            `json:"ops_per_rep"`
	Attempted   uint64            `json:"ops_attempted"`
	Failed      uint64            `json:"ops_failed"`
	Correct     bool              `json:"correct"`
	Problems    []string          `json:"problems,omitempty"`
	Fingerprint string            `json:"sim_fingerprint"`
	EndToEnd    map[string]Metric `json:"end_to_end"`
	PerLayer    map[string]Metric `json:"per_layer,omitempty"`
	TraceFile   string            `json:"trace_file,omitempty"`
}

// Env stamps where a result came from.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Degraded marks a run on fewer than two CPUs: the two-thread
	// workloads then time-share one core and their numbers say nothing
	// about scaling.
	Degraded bool `json:"degraded"`
}

func currentEnv() Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	e.Degraded = e.NumCPU < benchThreads
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the PR driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// ResultFile is what `bench run` writes and `bench compare` reads.
type ResultFile struct {
	Env       Env               `json:"env"`
	Seed      int64             `json:"seed"`
	Quick     bool              `json:"quick,omitempty"`
	Workloads []WorkloadResult  `json:"workloads"`
	Ladder    map[string]Metric `json:"ladder"`
	Derived   map[string]Metric `json:"derived"`
}

func (f *ResultFile) workload(name string) (*WorkloadResult, bool) {
	for i := range f.Workloads {
		if f.Workloads[i].Workload == name {
			return &f.Workloads[i], true
		}
	}
	return nil, false
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printMetric writes one metric line: name, unit, median, range, sample count.
func printMetric(w io.Writer, name string, m Metric) {
	fmt.Fprintf(w, "  %-38s %14.6g %-6s  min %.6g  max %.6g  n=%d\n", name, m.Median, m.Unit, m.Min, m.Max, m.N)
}
