package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// BenchmarkCampaignFig5Bench runs the repository benchmark's sweep workload —
// the fig5-bench spec (3 sections of Figure 5 at the small scale, 98
// replications) through Run into a fresh results store — so the allocations
// of a sweep can be profiled under `go test` (`make bench-profile`). The spec
// is read from bench/workloads and never written.
func BenchmarkCampaignFig5Bench(b *testing.B) {
	spec, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", "fig5-bench.campaign.json"))
	if err != nil {
		b.Fatal(err)
	}
	c, err := Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		store, err := results.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(c, sweep.Options{Results: store}); err != nil {
			b.Fatal(err)
		}
	}
}
