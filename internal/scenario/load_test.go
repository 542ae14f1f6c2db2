package scenario_test

import (
	"strings"
	"testing"

	"flexvc/internal/campaign"
)

// specWith wraps a scenario JSON object in a one-section campaign spec, the
// only place hand-written scenarios are loaded from.
func specWith(scenarioJSON string) []byte {
	return []byte(`{"name": "load", "sections": [{"title": "a",
		"variants": [{"label": "v", "set": {}}],
		"scenario": ` + scenarioJSON + `}]}`)
}

// TestLoadAndParse loads hand-written scenario JSON through campaign.Parse:
// a well-formed scenario decodes into its phases, a misspelt phase field is
// rejected by name, and an empty phase list fails validation.
func TestLoadAndParse(t *testing.T) {
	c, err := campaign.Parse(specWith(`{
		"name": "un-adv-un",
		"window": 500,
		"phases": [
			{"pattern": "uniform", "load": 0.3, "cycles": 8000},
			{"pattern": "adversarial", "load": 0.3, "cycles": 8000},
			{"pattern": "uniform", "load": 0.3, "cycles": 8000}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Sections[0].Scenario
	if s == nil || s.Name != "un-adv-un" || len(s.Phases) != 3 || s.TotalCycles() != 24000 {
		t.Errorf("loaded scenario = %+v", s)
	}
	_, err = campaign.Parse(specWith(`{"name": "typo", "window": 500,
		"phases": [{"pattern": "uniform", "laod": 0.4, "cycles": 8000}]}`))
	if err == nil || !strings.Contains(err.Error(), "laod") {
		t.Errorf("unknown field not rejected with the field name: %v", err)
	}
	if _, err := campaign.Parse(specWith(`{"window": 100, "phases": []}`)); err == nil {
		t.Error("empty phase list parsed")
	}
}
