package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary: the harness opens one
// around every call it makes into a layer of the program. Times are
// nanoseconds since the recorder's epoch; Parent is the index of the span
// that was open when this one began (-1 for a root); spans of one repetition
// share Rep.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// recorder keeps spans in memory until the run ends. It serves one goroutine
// (the harness drives the program from a single goroutine; what the program
// fans out internally stays inside one span). A nil recorder is the
// tracing-off state: begin and end cost one pointer compare.
type recorder struct {
	clock func() int64
	spans []span
	stack []int
	rep   int
}

// newRecorder returns a recorder on the monotonic clock.
func newRecorder() *recorder {
	epoch := time.Now()
	return &recorder{clock: func() int64 { return time.Since(epoch).Nanoseconds() }}
}

// setRep stamps the repetition identifier onto spans begun from now on.
func (r *recorder) setRep(rep int) {
	if r != nil {
		r.rep = rep
	}
}

// begin opens a span caused by the innermost open span and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Rep: r.rep})
	r.stack = append(r.stack, id)
	r.spans[id].Start = r.clock()
	return id
}

// end closes the span begin returned. Spans close innermost-first; anything
// else is a harness bug.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := r.clock()
	n := len(r.stack)
	if n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (open: %v)", id, r.stack))
	}
	r.stack = r.stack[:n-1]
	r.spans[id].End = now
}

// spanTotals is the per-name roll-up of a recording.
type spanTotals struct {
	Count int
	// Total sums the spans' durations; Self sums each duration minus the
	// part of it covered by the span's direct children.
	Total, Self int64
}

// totals rolls the closed spans up by name.
func (r *recorder) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if r == nil {
		return out
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - child[i]
		out[s.Name] = t
	}
	return out
}

// overheadNS estimates what recording cost the traced run: the number of
// spans times the per-span cost measured on a scratch recorder with the same
// clock. It is accounting, not a correction — spans are never adjusted.
func (r *recorder) overheadNS() int64 {
	if r == nil || len(r.spans) == 0 {
		return 0
	}
	const probes = 4096
	scratch := &recorder{clock: r.clock, spans: make([]span, 0, probes)}
	start := r.clock()
	for i := 0; i < probes; i++ {
		scratch.end(scratch.begin("probe"))
	}
	perSpan := float64(r.clock()-start) / probes
	return int64(perSpan * float64(len(r.spans)))
}

// writeNDJSON writes one JSON object per span, in recording order.
func (r *recorder) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
