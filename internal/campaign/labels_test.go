package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"flexvc/internal/sweep"
)

// specKeysGolden holds the key space of every embedded figure spec, as the
// Go-coded runners the specs replaced recorded it.
const specKeysGolden = "testdata/spec-keys.golden"

// pinnedLabels pins the section titles and variant labels of the specs that
// are not paper figures and so have no golden keys: the embedded smoke spec
// and the campaign the experiments manifest records.
var pinnedLabels = map[string]map[string][]string{
	"smoke": {
		"UN with MIN routing": {"Baseline 2/1", "FlexVC 4/2"},
	},
	"pb-policies-transient": {
		"UN -> ADV -> UN under PB": {"Baseline 4/2", "FlexVC 4/2", "FlexVC-minCred 4/2"},
	},
}

// TestCampaignKeyStability pins the results key space of every embedded spec
// and of the campaign the experiments manifest records. Section titles,
// variant labels, loads and config fingerprints key checkpoints and
// replications in recorded results (experiments/*), so a change here orphans
// recorded data — renames must be deliberate and must regenerate the
// artefacts. The figure specs are compared, without simulating, with
// testdata/spec-keys.golden: the keys the Go-coded runners they replaced
// exported at scale small, which is what makes the port exact. Each spec is
// also pushed through a marshal → re-parse round trip, proving a mechanical
// reformat of the JSON cannot shift the key space.
func TestCampaignKeyStability(t *testing.T) {
	golden := readSpecKeys(t)
	srcs := append(BuiltinNames(), "../../experiments/pb-policies-transient/campaign.json")
	tested := map[string]bool{}
	for _, src := range srcs {
		c, err := Resolve(src)
		if err != nil {
			t.Fatal(err)
		}
		tested[c.Name] = true
		t.Run(c.Name, func(t *testing.T) {
			lines := specKeyLines(t, c)

			// Round trip: reformatting or regenerating the JSON must not move
			// a single key.
			b, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := Parse(b)
			if err != nil {
				t.Fatalf("re-marshalled spec rejected: %v", err)
			}
			if again := specKeyLines(t, c2); strings.Join(again, "\n") != strings.Join(lines, "\n") {
				t.Error("re-marshalled spec compiles to a different key space")
			}

			if labels, ok := pinnedLabels[c.Name]; ok {
				verifySections(t, c, labels)
				return
			}
			want, ok := golden[c.Name]
			if !ok {
				t.Fatalf("embedded spec %s has no keys in %s (pin them there, or in pinnedLabels if it is not a paper figure)", c.Name, specKeysGolden)
			}
			for i := 0; i < len(want) || i < len(lines); i++ {
				w, g := "<none>", "<none>"
				if i < len(want) {
					w = want[i]
				}
				if i < len(lines) {
					g = lines[i]
				}
				if w != g {
					t.Fatalf("%s: key %d of %d differs from %s (results keys must stay stable)\n  want: %s\n  got:  %s", c.Name, i, len(want), specKeysGolden, w, g)
				}
			}
		})
	}
	for name := range golden {
		if !tested[name] {
			t.Errorf("%s pins keys for %s, which is no embedded spec", specKeysGolden, name)
		}
	}
}

// specKeyLines renders the key space Keys lists for the spec at scale small
// with one seed, in the golden file's format.
func specKeyLines(t *testing.T, c *Campaign) []string {
	t.Helper()
	keys, err := Keys(c, sweep.Options{Scale: "small", Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%s\t%d\t%s\t%d\t%s\t%s\t%s", k.Experiment, k.SectionIndex, k.Section, k.VariantIndex, k.Variant,
			strconv.FormatFloat(k.Load, 'g', -1, 64), k.Fingerprint)
	}
	return lines
}

// readSpecKeys loads the golden key lines, grouped by spec name.
func readSpecKeys(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(specKeysGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, "\t")
		out[name] = append(out[name], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func verifySections(t *testing.T, c *Campaign, want map[string][]string) {
	t.Helper()
	secs, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != len(want) {
		t.Errorf("%s: %d sections, want %d", c.Name, len(secs), len(want))
	}
	for _, sec := range secs {
		labels, ok := want[sec.Title]
		if !ok {
			t.Errorf("%s: unexpected section title %q (results keys must stay stable)", c.Name, sec.Title)
			continue
		}
		if len(sec.Variants) != len(labels) {
			t.Errorf("%s/%s: %d variants, want %d", c.Name, sec.Title, len(sec.Variants), len(labels))
			continue
		}
		for i, v := range sec.Variants {
			if v.Label != labels[i] {
				t.Errorf("%s/%s[%d]: label %q, want %q (results keys must stay stable)", c.Name, sec.Title, i, v.Label, labels[i])
			}
		}
	}
}
