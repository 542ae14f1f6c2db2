package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The shapes the driver accepts for metric and workload names, and for units.
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitionsAreValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ (at most 64)", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q invalid", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		// A quarter is the widest bound the driver accepts.
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", d.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("end-to-end metrics lack setup_s")
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.json are what the harness emits. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	all, err := benchWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	ws := gated(all)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.json gates %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.json %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if !metricNameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: invalid name or why longer than 200", w.Name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}
