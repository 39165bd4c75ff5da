package campaign

import (
	"encoding/json"
	"strings"
	"testing"
)

const specGapToGo = `{
  "name": "gap-to-go",
  "seed": 7,
  "duration_ms": 900,
  "tx_queue_limit": 4,
  "faults": [
    {
      "direction": "both",
      "commands": ["MODE OFF", "COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"],
      "mode": "on",
      "duty_on_ms": 1,
      "duty_period_ms": 100
    }
  ]
}`

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(specGapToGo))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "gap-to-go" || len(s.Faults) != 1 {
		t.Errorf("parsed spec wrong: %+v", s)
	}
}

// badSpecs are specs ParseSpec must refuse, by what is wrong with them.
var badSpecs = map[string]string{
	"unknown field":  `{"name":"x","typo_field":1,"faults":[]}`,
	"no name":        `{"faults":[]}`,
	"bad direction":  `{"name":"x","faults":[{"direction":"up","commands":["A"]}]}`,
	"bad mode":       `{"name":"x","faults":[{"mode":"sometimes","commands":["A"]}]}`,
	"half duty":      `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":5}]}`,
	"duty > period":  `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":50,"duty_period_ms":5}]}`,
	"empty commands": `{"name":"x","faults":[{"commands":[]}]}`,
	"not json":       `{`,
	"trailing data":  `{"name":"x","faults":[]} {"name":"y"}`,
	"trailing junk":  `{"name":"x","faults":[]}]`,
	"neg duration":   `{"name":"x","duration_ms":-1,"faults":[]}`,
	"huge duration":  `{"name":"x","duration_ms":1e300,"faults":[]}`,
	"neg load":       `{"name":"x","load":{"period_ms":-2},"faults":[]}`,
	"neg at":         `{"name":"x","faults":[{"commands":["A"],"at_ms":-5}]}`,
	"neg duty":       `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":-1,"duty_period_ms":-1}]}`,
	"zero-ps period": `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":1e-10,"duty_period_ms":1e-10}]}`,
	"sub-char duty":  `{"name":"x","faults":[{"commands":["A"],"duty_on_ms":1e-6,"duty_period_ms":1e-6}]}`,
	"clock overflow": `{"name":"x","faults":[{"commands":["A"],"at_ms":9e9}]}`,
	"tiny payload":   `{"name":"x","duration_ms":5,"load":{"size":3},"faults":[]}`,
	"huge payload":   `{"name":"x","load":{"size":70000},"faults":[]}`,
	"neg burst":      `{"name":"x","load":{"burst":-1},"faults":[]}`,
	"neg queue":      `{"name":"x","tx_queue_limit":-1,"faults":[]}`,
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	cases := badSpecs
	for name, raw := range cases {
		if _, err := ParseSpec([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The rejections name the offending field.
	for field, raw := range map[string]string{
		"fault 0: at_ms":  cases["neg at"],
		"duration_ms":     cases["neg duration"],
		"duty_period_ms":  cases["zero-ps period"],
		"load.period_ms":  cases["neg load"],
		"trailing data":   cases["trailing data"],
		"fault 0: duty_o": cases["neg duty"],
		"load.size":       cases["tiny payload"],
		"load.burst":      cases["neg burst"],
		"tx_queue_limit":  cases["neg queue"],
	} {
		if _, err := ParseSpec([]byte(raw)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("error %v does not name %q", err, field)
		}
	}
}

func TestRunSpecBaseline(t *testing.T) {
	res, err := RunSpec(Spec{Name: "baseline", Seed: 1, DurationMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Received != res.Sent {
		t.Errorf("baseline spec lost traffic: %+v", res)
	}
	if res.Classification != "no-effect" {
		t.Errorf("classification = %q, want no-effect", res.Classification)
	}
	if res.Injections != 0 {
		t.Errorf("injections = %d with no faults", res.Injections)
	}
}

func TestRunSpecGapCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run; skipped in -short")
	}
	s, err := ParseSpec([]byte(specGapToGo))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections == 0 {
		t.Fatal("spec campaign injected nothing")
	}
	if res.Received >= res.Sent {
		t.Errorf("no loss from GAP corruption: %+v", res)
	}
	if res.Classification != "passive" {
		t.Errorf("classification = %q, want passive", res.Classification)
	}
	out := FormatSpecResult(res)
	if !strings.Contains(out, "gap-to-go") || !strings.Contains(out, "injections=") {
		t.Errorf("FormatSpecResult output malformed: %q", out)
	}
}

func TestRunSpecOnceMode(t *testing.T) {
	res, err := RunSpec(Spec{
		Name:       "once",
		Seed:       3,
		DurationMS: 300,
		Faults: []FaultSpec{{
			Commands: []string{"COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"},
			Mode:     "once",
			AtMS:     50,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once per direction: at most 2 injections.
	if res.Injections == 0 || res.Injections > 2 {
		t.Errorf("once-mode injections = %d, want 1-2", res.Injections)
	}
}

// TestRunSpecRejectedCommand: a line the injector answers with an error must
// stop the campaign, not run it unconfigured.
func TestRunSpecRejectedCommand(t *testing.T) {
	_, err := RunSpec(Spec{Name: "bogus", DurationMS: 5, Faults: []FaultSpec{
		{Commands: []string{"MODE OFF"}},
		{Direction: "R", Commands: []string{"MODE OFF", "BOGUS CMD"}},
	}})
	if err == nil || !strings.Contains(err.Error(), "fault 1") || !strings.Contains(err.Error(), "BOGUS CMD") {
		t.Errorf("err = %v, want one naming fault 1 and its command", err)
	}
	// A line answered with data lines before its OK is accepted: only the
	// terminal OK/ERR line is its answer.
	if _, err := RunSpec(Spec{Name: "stat", DurationMS: 5, Faults: []FaultSpec{{Commands: []string{"STAT"}}}}); err != nil {
		t.Errorf("STAT (data lines, then OK): %v", err)
	}
	// A RULE ADD line outlasts the per-line serial budget; its OK is
	// waited for, not mistaken for a missing answer.
	if _, err := RunSpec(Spec{Name: "rule", DurationMS: 5, Faults: []FaultSpec{{Direction: "L",
		Commands: []string{"RULE ADD 1 PRIO 1 ACT REPLACE PAT 40 40 12 06 VEC -- -- 71 --"}}}}); err != nil {
		t.Errorf("long RULE ADD line: %v", err)
	}
}

// TestTable4ThroughSpecFile: every Table 4 row is a spec file. The Spec a
// row runs, written out as JSON, parsed back and run by RunSpec, reproduces
// the row.
func TestTable4ThroughSpecFile(t *testing.T) {
	opts := SectionOptions{Seed: 5}
	pairs := Table4Pairs()
	if testing.Short() {
		opts.Scale = 0.1
		pairs = pairs[:1]
	}
	type both struct {
		row  Table4Row
		spec SpecResult
		err  error
	}
	got := RunTrials(len(pairs), DefaultWorkers(), func(i int) both {
		mask, repl := pairs[i][0], pairs[i][1]
		data, err := json.Marshal(table4Spec(mask, repl, opts.Seed, opts.table4Duration()))
		if err != nil {
			return both{err: err}
		}
		s, err := ParseSpec(data)
		if err != nil {
			return both{err: err}
		}
		res, err := RunSpec(s)
		return both{RunTable4Row(mask, repl, opts), res, err}
	})
	for i, g := range got {
		if g.err != nil {
			t.Fatalf("row %d: %v", i, g.err)
		}
		if g.spec.Outcome != g.row.Outcome {
			t.Errorf("%v->%v: spec file gave %+v, the section %+v",
				g.row.Mask, g.row.Replacement, g.spec.Outcome, g.row.Outcome)
		}
	}
}

// FuzzParseSpec: no input panics ParseSpec, and every accepted spec small
// enough to run in a few milliseconds runs without panicking (an error is
// allowed).
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(specGapToGo))
	f.Add([]byte(`{"name":"x","duration_ms":5,"load":{"period_ms":1},"faults":[{"direction":"L","commands":["MODE OFF","COMPARE -- -- -- X0C"],"mode":"once","duty_on_ms":1,"duty_period_ms":2}]}`))
	for _, raw := range badSpecs {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// A short run offers at most six bursts; bounding the burst, the
		// payload and the duty period keeps each input's memory small.
		small := s.DurationMS <= 5 && (s.Load.PeriodMS == 0 || s.Load.PeriodMS >= 1) &&
			s.Load.Burst <= 16 && s.Load.Size <= 4096
		for _, f := range s.Faults {
			small = small && (f.DutyPeriodMS == 0 || f.DutyPeriodMS >= 0.01)
		}
		if small {
			_, _ = RunSpec(s) // a rejected command is a valid outcome
		}
	})
}
