package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"netfi/internal/campaign"
)

// TestTrialViewCoversTrial: every exported field of campaign.Trial reaches
// the one JSON trial view that resilience, chaos and the monitor demo share.
// Setting a field alone must change the rendered view, so a field added to
// Trial without a key fails here. Outstanding is triage's input, not a
// result, and stays out of the view.
func TestTrialViewCoversTrial(t *testing.T) {
	render := func(tr campaign.Trial) string {
		out, err := json.Marshal(viewTrial(tr))
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	typ := reflect.TypeOf(campaign.Trial{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || f.Name == "Outstanding" {
			continue
		}
		var base campaign.Trial
		// A latency is reported only for a detection.
		base.Detected = f.Name == "DetectLatency"
		tr := base
		v := reflect.ValueOf(&tr).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(1234567)
		case reflect.Uint64:
			v.SetUint(7)
		default:
			t.Fatalf("Trial.%s: a %s field this test cannot set", f.Name, v.Kind())
		}
		if render(tr) == render(base) {
			t.Errorf("Trial.%s has no key in the JSON trial view", f.Name)
		}
	}
}
