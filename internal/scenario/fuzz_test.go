package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzScenarioParse fuzzes the scenario JSON loader with two invariants: Parse
// never panics on arbitrary input, and every input it accepts survives a
// marshal → re-parse round trip with an equivalent compiled form (same
// struct, same total cycles, same phase labels). The round trip is what the
// campaign layer relies on when it re-embeds scenarios in spec files.
func FuzzScenarioParse(f *testing.F) {
	// The transient campaign's UN -> ADV -> UN scenario is the canonical
	// real-world seed; the others cover the tricky corners (ramps, overrides,
	// rejects).
	f.Add([]byte(`{
  "name": "un-adv-un",
  "window": 500,
  "phases": [
    {"pattern": "uniform", "load": 0.3, "cycles": 8000},
    {"pattern": "adversarial", "load": 0.3, "cycles": 8000},
    {"pattern": "uniform", "load": 0.3, "cycles": 8000}
  ]
}`))
	f.Add([]byte(`{"name":"t","window":100,"phases":[{"pattern":"uniform","load":0.4,"cycles":200}]}`))
	f.Add([]byte(`{"window":50,"phases":[
		{"pattern":"uniform","load":0.1,"load_end":0.9,"cycles":100},
		{"pattern":"bursty-uniform","load":0.5,"cycles":50,"avg_burst_length":8},
		{"pattern":"group-hotspot","load":0.3,"cycles":50,"hotspot_fraction":0.2,"hotspot_group":1}]}`))
	f.Add([]byte(`{"window":0,"phases":[]}`))
	f.Add([]byte(`{"window":100,"phases":[{"pattern":"nope","load":0.4,"cycles":200}]}`))
	f.Add([]byte(`{"window":100,"phases":[{"pattern":"uniform","load":0.4,"cycles":150}]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		s2, err := Parse(b)
		if err != nil {
			t.Fatalf("re-marshalled scenario rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the scenario:\n was: %+v\n now: %+v", s, s2)
		}
		if s.TotalCycles() != s2.TotalCycles() {
			t.Fatalf("round trip changed TotalCycles: %d vs %d", s.TotalCycles(), s2.TotalCycles())
		}
		for i := range s.Phases {
			if s.Phases[i].Label() != s2.Phases[i].Label() {
				t.Fatalf("round trip changed phase %d label: %q vs %q", i, s.Phases[i].Label(), s2.Phases[i].Label())
			}
		}
	})
}
