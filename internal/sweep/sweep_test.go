package sweep

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
)

func TestOptionsBaseConfig(t *testing.T) {
	for _, scale := range []string{"small", "medium", "paper", ""} {
		opts := Options{Scale: scale}
		cfg, err := opts.BaseConfig()
		if err != nil {
			t.Errorf("scale %q: %v", scale, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("scale %q produces invalid config: %v", scale, err)
		}
	}
	if _, err := (Options{Scale: "bogus"}).BaseConfig(); err == nil {
		t.Error("unknown scale should fail")
	}
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if got := (Options{Quick: true}).loads(loads); len(got) != 3 || got[0] != 0.1 || got[1] != 0.3 || got[2] != 0.5 {
		t.Errorf("quick load trimming broken: %v", got)
	}
	if got := (Options{}).loads(loads); len(got) != len(loads) {
		t.Errorf("full run trimmed its loads: %v", got)
	}
	quick, err := (Options{Quick: true}).BaseConfig()
	if err != nil {
		t.Fatal(err)
	}
	if small := config.Small(); quick.WarmupCycles != small.WarmupCycles/2 || quick.MeasureCycles != small.MeasureCycles/2 {
		t.Errorf("quick windows %d/%d, want half of %d/%d", quick.WarmupCycles, quick.MeasureCycles, small.WarmupCycles, small.MeasureCycles)
	}
}

// TestRunSectionTiny runs a minimal section end to end on the tiny system,
// without a results store.
func TestRunSectionTiny(t *testing.T) {
	base := config.Tiny()
	base.WarmupCycles = 300
	base.MeasureCycles = 800
	variants := []Variant{
		{Label: "baseline", Apply: func(c *config.Config) {}},
		{Label: "flexvc", Apply: func(c *config.Config) { c.Scheme.Policy = core.FlexVC }},
	}
	series, err := Options{Seeds: 1}.NewRunner("tiny").RunSection("tiny", base, variants, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Points) != 2 {
		t.Fatalf("unexpected series shape: %+v", series)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Result.DeliveredPackets == 0 {
				t.Errorf("%s at load %.1f delivered nothing", s.Label, p.Load)
			}
		}
		if s.MaxAccepted() <= 0 {
			t.Errorf("%s accessors broken", s.Label)
		}
	}
	if series[0].Label != "baseline" || series[1].Label != "flexvc" {
		t.Errorf("series labels %q, %q out of variant order", series[0].Label, series[1].Label)
	}
}

// TestRunSectionRejectsInvalidVariant checks error propagation.
func TestRunSectionRejectsInvalidVariant(t *testing.T) {
	base := config.Tiny()
	bad := []Variant{{Label: "broken", Apply: func(c *config.Config) { c.PacketSize = 0 }}}
	if _, err := (Options{}).NewRunner("bad").RunSection("bad", base, bad, []float64{0.5}); err == nil {
		t.Error("invalid variant should surface an error")
	}
}

// TestOneExperimentPath keeps the deleted Go-coded experiment registry and
// its knobs from growing back: a simulated experiment is a campaign spec, so
// no non-test source under internal/ or cmd/ may name the registry, its
// runners or the point-parallelism cap.
func TestOneExperimentPath(t *testing.T) {
	// Spelled in halves so this file stays clean under the same grep.
	words := []string{"sweep.Regi" + "stry", "sweep.Ru" + "n(", "sweep.I" + "Ds", "MaxThrou" + "ghput", "Paralle" + "lism"}
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, word := range words {
				if strings.Contains(string(src), word) {
					t.Errorf("%s mentions %q", path, word)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
