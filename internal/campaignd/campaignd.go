// Package campaignd is the multi-process campaign execution service: it fans
// the replications of a declarative campaign (internal/campaign) out across N
// worker processes that share one results directory, using the results
// store's lease-based shard-claim protocol (internal/results) to divide the
// work with per-record exactly-once semantics and no coordinator state
// beyond the filesystem.
//
// The package has two layers:
//
//   - Worker: one worker process's body. It runs the campaign through the
//     checkpointed sweep runner in claim mode (sweep.Options.Claims) and
//     streams progress events as NDJSON to its stdout.
//   - Coordinator: spawns N workers, multiplexes their event streams, merges
//     their metrics snapshots, optionally SIGKILLs one mid-run (the chaos
//     hook behind the campaignd-smoke CI gate), and — after every worker has
//     exited — runs a final in-process restore pass that fills any holes a
//     dead worker left and writes the deterministic export. Because records
//     are keyed and sorted independently of which process produced them, the
//     export is byte-identical to a single-process `figures run -campaign`
//     run.
//
// Several coordinators pointed at one results directory share its
// checkpoints: they divide overlapping work through the same lease protocol
// their workers use.
//
// Durability and exactly-once are argued in DESIGN.md ("Sharded campaign
// execution"): records are written atomically (fsynced temp file + rename +
// directory fsync) under key-derived names, leases are taken with
// O_CREATE|O_EXCL and taken over through atomic renames after mtime expiry,
// and a key simulated twice (a worker stalled past the lease TTL without
// dying) overwrites its record with byte-identical data because replications
// are deterministic in their key.
package campaignd

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"flexvc/internal/obs"
	"flexvc/internal/sweep"
)

// Event is one NDJSON message of a campaign's progress stream: worker
// progress lines while replications finish, one "summary" line per worker
// run, optionally a "metrics" line carrying the worker's registry snapshot,
// then exactly one terminal "done" or "error" line per stream.
type Event struct {
	// Type is "progress", "summary", "metrics", "done" or "error".
	Type string `json:"type"`
	// Campaign is the campaign (experiment) name.
	Campaign string `json:"campaign,omitempty"`
	// Worker identifies the emitting worker ("w0", "w1", …); empty on
	// coordinator-synthesized events.
	Worker string `json:"worker,omitempty"`
	// Progress payload (Type == "progress"); mirrors sweep.Progress. Done
	// counts the emitting worker's view of the whole campaign: replications
	// it simulated plus ones it restored, including records claimed and
	// written by its peers.
	Section   string `json:"section,omitempty"`
	Done      int    `json:"done,omitempty"`
	Skipped   int    `json:"skipped,omitempty"`
	Total     int    `json:"total,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	EtaMS     int64  `json:"eta_ms,omitempty"`
	// RecordsPerSec is the measured fresh-simulation throughput (progress
	// and summary events; zero until a fresh replication completes).
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
	// Metrics is the emitting worker's full registry snapshot (Type ==
	// "metrics"); the coordinator merges it into its own registry.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Export is the results file path (Type == "done", coordinator streams
	// only).
	Export string `json:"export,omitempty"`
	// Error is the failure message (Type == "error").
	Error string `json:"error,omitempty"`
}

// progressEvent converts one sweep progress callback into an event; the
// run's final Summary callback becomes a "summary" event.
func progressEvent(worker string, p sweep.Progress) Event {
	typ := "progress"
	if p.Summary {
		typ = "summary"
	}
	return Event{
		Type:          typ,
		Campaign:      p.Experiment,
		Worker:        worker,
		Section:       p.Section,
		Done:          p.Done,
		Skipped:       p.Skipped,
		Total:         p.Total,
		ElapsedMS:     p.Elapsed.Milliseconds(),
		EtaMS:         p.ETA.Milliseconds(),
		RecordsPerSec: p.RecordsPerSec,
	}
}

// eventWriter serializes NDJSON event emission onto one writer.
type eventWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newEventWriter(w io.Writer) *eventWriter {
	return &eventWriter{enc: json.NewEncoder(w)}
}

func (ew *eventWriter) emit(ev Event) {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	_ = ew.enc.Encode(ev) // a broken pipe must not fail the simulation
}

// FormatEvent renders an event as the one-line human summary the CLIs print.
func FormatEvent(ev Event) string {
	switch ev.Type {
	case "progress":
		return fmt.Sprintf("%s %s [%s] %d/%d replications (%d restored) elapsed %s eta %s",
			ev.Campaign, ev.Worker, ev.Section, ev.Done, ev.Total, ev.Skipped,
			(time.Duration(ev.ElapsedMS) * time.Millisecond).Round(time.Second),
			(time.Duration(ev.EtaMS) * time.Millisecond).Round(time.Second))
	case "summary":
		return fmt.Sprintf("%s %s summary: %d replications (%d restored) in %s, %.1f records/s",
			ev.Campaign, ev.Worker, ev.Done, ev.Skipped,
			(time.Duration(ev.ElapsedMS) * time.Millisecond).Round(time.Second),
			ev.RecordsPerSec)
	case "metrics":
		n := 0
		if ev.Metrics != nil {
			n = len(ev.Metrics.Counters) + len(ev.Metrics.Gauges) + len(ev.Metrics.Values) + len(ev.Metrics.Histograms)
		}
		return fmt.Sprintf("%s %s metrics snapshot (%d series)", ev.Campaign, ev.Worker, n)
	case "done":
		if ev.Export != "" {
			return fmt.Sprintf("%s done -> %s", ev.Campaign, ev.Export)
		}
		return fmt.Sprintf("%s %s done", ev.Campaign, ev.Worker)
	case "error":
		return fmt.Sprintf("%s %s error: %s", ev.Campaign, ev.Worker, ev.Error)
	}
	return fmt.Sprintf("%s %s %s", ev.Campaign, ev.Worker, ev.Type)
}
