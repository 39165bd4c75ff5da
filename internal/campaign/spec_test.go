package campaign

import (
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
      "commands": ["COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"],
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

func TestParseSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
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
	}
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
	} {
		if _, err := ParseSpec([]byte(raw)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("error %v does not name %q", err, field)
		}
	}
}

func TestRunSpecBaseline(t *testing.T) {
	res := RunSpec(Spec{Name: "baseline", Seed: 1, DurationMS: 500})
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
	res := RunSpec(s)
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
	res := RunSpec(Spec{
		Name:       "once",
		Seed:       3,
		DurationMS: 300,
		Faults: []FaultSpec{{
			Commands: []string{"COMPARE -- -- -- X0C", "CORRUPT REPLACE -- -- -- X03"},
			Mode:     "once",
			AtMS:     50,
		}},
	})
	// Once per direction: at most 2 injections.
	if res.Injections == 0 || res.Injections > 2 {
		t.Errorf("once-mode injections = %d, want 1-2", res.Injections)
	}
}
