package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeRecorder returns a recorder whose clock the test advances by hand.
func fakeRecorder() (*recorder, *int64) {
	now := new(int64)
	return &recorder{clock: func() int64 { return *now }}, now
}

func TestSelfTimeNestedAndSiblingSpans(t *testing.T) {
	r, now := fakeRecorder()
	root := r.begin("run") // 0..100
	*now = 10
	a := r.begin("layer") // 10..40
	*now = 20
	leaf := r.begin("leaf") // 20..25, grandchild of run
	*now = 25
	r.end(leaf)
	*now = 40
	r.end(a)
	*now = 50
	b := r.begin("layer") // 50..90, sibling of the first
	*now = 90
	r.end(b)
	*now = 100
	r.end(root)

	got := r.totals()
	want := map[string]spanTotals{
		"run":   {Count: 1, Total: 100, Self: 30}, // 100 - (30 + 40); the grandchild is not subtracted twice
		"layer": {Count: 2, Total: 70, Self: 65},  // (30 - 5) + 40
		"leaf":  {Count: 1, Total: 5, Self: 5},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("totals[%q] = %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("totals has %d names, want %d: %+v", len(got), len(want), got)
	}
	if r.spans[1].Parent != 0 || r.spans[2].Parent != 1 || r.spans[3].Parent != 0 || r.spans[0].Parent != -1 {
		t.Errorf("parents wrong: %+v", r.spans)
	}
}

func TestZeroLengthSpan(t *testing.T) {
	r, now := fakeRecorder()
	*now = 7
	root := r.begin("outer")
	r.end(r.begin("instant"))
	*now = 9
	r.end(root)
	got := r.totals()
	if got["instant"] != (spanTotals{Count: 1}) {
		t.Errorf("zero-length span = %+v, want count 1 and no time", got["instant"])
	}
	if got["outer"].Self != 2 {
		t.Errorf("outer self = %d, want 2", got["outer"].Self)
	}
}

func TestRepetitionIdentifier(t *testing.T) {
	r, _ := fakeRecorder()
	r.setRep(1)
	r.end(r.begin("a"))
	r.setRep(2)
	r.end(r.begin("a"))
	if r.spans[0].Rep != 1 || r.spans[1].Rep != 2 {
		t.Errorf("reps = %d, %d, want 1, 2", r.spans[0].Rep, r.spans[1].Rep)
	}
}

func TestOutOfOrderEndPanics(t *testing.T) {
	r, _ := fakeRecorder()
	outer := r.begin("outer")
	r.begin("inner")
	defer func() {
		if recover() == nil {
			t.Error("closing the outer span before the inner one did not panic")
		}
	}()
	r.end(outer)
}

func TestNilRecorderIsTracingOff(t *testing.T) {
	var r *recorder
	r.setRep(3)
	id := r.begin("anything")
	r.end(id)
	if id != -1 || len(r.totals()) != 0 || r.overheadNS() != 0 {
		t.Error("a nil recorder recorded something")
	}
}

// The overhead estimate is spans x per-span cost, the cost taken from probe
// spans on the same clock and never folded back into the recorded spans.
func TestOverheadAccounting(t *testing.T) {
	now := int64(0)
	r := &recorder{clock: func() int64 { now += 3; return now }} // every clock read costs 3 ns
	for i := 0; i < 10; i++ {
		r.end(r.begin("op"))
	}
	before := append([]span(nil), r.spans...)
	// A probe span reads the clock twice: 6 ns per span, 10 spans recorded.
	// The two bracketing reads add 6 ns over 4096 probes, which rounds away.
	if got := r.overheadNS(); got != 60 {
		t.Errorf("overheadNS = %d, want 60", got)
	}
	for i := range before {
		if r.spans[i] != before[i] {
			t.Errorf("span %d changed by overhead accounting: %+v -> %+v", i, before[i], r.spans[i])
		}
	}
	if len(r.spans) != len(before) {
		t.Errorf("probe spans leaked into the recording: %d spans, want %d", len(r.spans), len(before))
	}
}

func TestWriteNDJSONRoundTrip(t *testing.T) {
	r, now := fakeRecorder()
	root := r.begin("run")
	*now = 5
	r.end(r.begin("child"))
	*now = 8
	r.end(root)
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := r.writeNDJSON(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0] != r.spans[0] || got[1] != r.spans[1] {
		t.Errorf("read back %+v, want %+v", got, r.spans)
	}
}
