package campaign

import (
	"fmt"

	"flexvc/internal/config"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// Run executes the campaign through the sweep layer: sections run serially
// through the checkpointed section runner (so runs resume from a results
// store), and the returned report carries each section's series. Run renders
// nothing: the report of a run is the markdown of its exported results
// (sweep.RenderResultsMarkdown), which `figures render` writes.
//
// The options' scale and seed count win over the spec's defaults when set, so
// command-line overrides apply to every spec alike. Every section is planned
// (and each point configuration validated) before the first one simulates, so
// a spec that cannot run fails without writing a record.
func Run(c *Campaign, opts sweep.Options) (*sweep.Report, error) {
	if _, err := Keys(c, opts); err != nil {
		return nil, err
	}
	sections, base, opts, err := c.prepare(opts)
	if err != nil {
		return nil, err
	}
	runner := opts.NewRunner(c.Name)
	rep := &sweep.Report{ID: c.Name, Title: c.ReportTitle()}
	for _, sec := range sections {
		b := base
		b.Scenario = sec.Scenario
		series, err := runner.RunSection(sec.Title, b, sec.Variants, runner.EffectiveLoads(sec.Loads))
		if err != nil {
			return nil, fmt.Errorf("campaign %s: section %q: %w", c.Name, sec.Title, err)
		}
		rep.Sections = append(rep.Sections, sweep.Section{Title: sec.Title, Series: series})
	}
	runner.Finish()
	return rep, nil
}

// Keys returns, without simulating, every record Run would write under the
// same options, in export order: results keys, section and variant indices
// and config fingerprints, Result left zero. It costs milliseconds, so it is
// how a recorded export's key space is checked against its spec without
// re-running it.
func Keys(c *Campaign, opts sweep.Options) ([]results.Record, error) {
	sections, base, opts, err := c.prepare(opts)
	if err != nil {
		return nil, err
	}
	runner := opts.NewRunner(c.Name)
	var keys []results.Record
	for _, sec := range sections {
		b := base
		b.Scenario = sec.Scenario
		recs, err := runner.PlanSection(sec.Title, b, sec.Variants, runner.EffectiveLoads(sec.Loads))
		if err != nil {
			return nil, fmt.Errorf("campaign %s: section %q: %w", c.Name, sec.Title, err)
		}
		keys = append(keys, recs...)
	}
	return keys, nil
}

// prepare compiles the spec, fills the options' unset scale and seed count
// from the spec's defaults and returns the run's base configuration.
func (c *Campaign) prepare(opts sweep.Options) ([]CompiledSection, config.Config, sweep.Options, error) {
	sections, err := c.Compile()
	if err != nil {
		return nil, config.Config{}, opts, err
	}
	if opts.Scale == "" && c.Scale != "" {
		opts.Scale = c.Scale
	}
	if opts.Seeds <= 0 && c.Seeds > 0 {
		opts.Seeds = c.Seeds
	}
	base, err := opts.BaseConfig()
	return sections, base, opts, err
}
