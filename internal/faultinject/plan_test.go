package faultinject

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string // substring of the error, "" = valid
	}{
		{"valid", Rule{Component: "chirp_client", Action: ActError}, ""},
		{"valid wildcard", Rule{Component: "*", Op: "*", Action: ActDrop}, ""},
		{"missing component", Rule{Action: ActError}, "component is required"},
		{"unknown action", Rule{Component: "x", Action: "explode"}, "unknown action"},
		{"empty action", Rule{Component: "x"}, "unknown action"},
		{"negative after", Rule{Component: "x", Action: ActError, After: -1}, "non-negative"},
		{"negative times", Rule{Component: "x", Action: ActError, Times: -2}, "non-negative"},
		{"prob too big", Rule{Component: "x", Action: ActError, Prob: 1.5}, "outside [0,1]"},
		{"delay without ms", Rule{Component: "x", Action: ActDelay}, "needs delay_ms"},
		{"stall-kill without ms", Rule{Component: "x", Action: ActStallKill}, "needs delay_ms"},
		{"delay with ms", Rule{Component: "x", Action: ActDelay, DelayMS: 5}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Rules: []Rule{tc.rule}}
			err := p.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Seed: 42,
		Rules: []Rule{
			{Component: "wq_worker", Op: "read", Action: ActDrop, After: 10, Times: 2},
			{Component: "squid_origin", Op: "roundtrip", Action: ActStallKill, DelayMS: 20, Every: 4, Times: 3, Message: "half-dead proxy"},
			{Component: "*", Action: ActDelay, DelayMS: 5, Prob: 0.25},
		},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip changed the plan:\n  in:  %+v\n  out: %+v", p, back)
	}
}

func TestParsePlanRejectsBadInput(t *testing.T) {
	if _, err := ParsePlan([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"component":"x","action":"nope"}]}`)); err == nil {
		t.Error("invalid rule accepted")
	}
}
