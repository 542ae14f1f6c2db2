package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexvc/internal/results"
)

// runCaptured runs the command with args and returns what it printed to
// stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// TestScenarioPrintsTransientTables: a -scenario run prints the windowed
// telemetry and, for a multi-phase scenario, the adaptation-lag summary.
func TestScenarioPrintsTransientTables(t *testing.T) {
	out, err := runCaptured(t, "-scale", "tiny", "-routing", "pb", "-vcs", "4/2",
		"-scenario", filepath.Join("..", "..", "experiments", "transient-small", "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"#### Windowed telemetry", "#### Adaptation lag", "| cycle |", "adversarial@0.30"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestCampaignRejectsConfigFlags: with -campaign the spec defines the
// configuration, so a flag the variant would overwrite is an error naming it.
func TestCampaignRejectsConfigFlags(t *testing.T) {
	_, err := runCaptured(t, "-campaign", "smoke", "-variant", "FlexVC 4/2", "-policy", "flexvc")
	if err == nil || !strings.Contains(err.Error(), "-policy") {
		t.Fatalf("-campaign with -policy: err = %v, want one naming -policy", err)
	}
}

// TestCampaignVariantWritesSinglePoint: one variant of a campaign spec run
// with -out writes a single-point results file that decodes.
func TestCampaignVariantWritesSinglePoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	if _, err := runCaptured(t, "-campaign", "smoke", "-variant", "FlexVC 4/2", "-scale", "tiny", "-out", path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sp results.SinglePoint
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Schema != results.SchemaVersion || sp.Scale != "tiny" || sp.Seeds != 1 || sp.Load != 0.2 || len(sp.Runs) != 1 {
		t.Errorf("unexpected single point: schema %d scale %q seeds %d load %v runs %d", sp.Schema, sp.Scale, sp.Seeds, sp.Load, len(sp.Runs))
	}
	if sp.Aggregate.DeliveredPackets == 0 || !strings.Contains(sp.Description, "flexvc") {
		t.Errorf("single point does not describe a simulated FlexVC run: %+v", sp.Aggregate)
	}
}
