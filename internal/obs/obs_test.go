package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsFullyDisabled locks the zero-impact contract's first half:
// every operation on a nil registry (and the nil metric handles it returns)
// must be a silent no-op, because the disabled path in sim/sweep/campaignd is
// exactly "the pointer is nil".
func TestNilRegistryIsFullyDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil handles: %v %v %v", c, g, h)
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter Value = %d", c.Value())
	}
	g.Set(7)
	g.SetMax(9)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge Value = %d", g.Value())
	}
	h.Observe(3)
	h.Since(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram Count=%d Sum=%d", h.Count(), h.Sum())
	}
	r.SetValue("v", 2)
	if err := r.Merge(&Snapshot{Counters: map[string]int64{"c": 1}}); err != nil {
		t.Fatalf("nil Merge: %v", err)
	}
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 || len(s.Values) != 0 {
		t.Fatalf("nil Snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flexvc_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("flexvc_test_total") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("flexvc_test_gauge")
	g.Set(10)
	g.SetMax(7) // lower: must not move
	if g.Value() != 10 {
		t.Fatalf("SetMax(7) lowered gauge to %d", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Fatalf("SetMax(12) -> %d", g.Value())
	}
	g.Add(-2)
	if g.Value() != 10 {
		t.Fatalf("Add(-2) -> %d", g.Value())
	}
	if r.Gauge("flexvc_test_gauge") != g {
		t.Fatal("same name returned a different gauge")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name returned a different histogram")
	}
}

// bucketUpper returns the largest value mapping to bucket i (its inclusive
// upper bound): the inverse of bucketIndex that TestBucketLayout checks it
// against.
func bucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	shift := (i-histSubCount)/histHalf + 1
	sub := (i-histSubCount)%histHalf + histHalf
	u := (uint64(sub)+1)<<uint(shift) - 1
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// TestBucketLayout checks the histogram's bucket math: every sample lands in
// a bucket whose inclusive upper bound is >= the sample, bucket upper bounds
// are strictly increasing, and the relative width above the exact region is
// at most 1/16.
func TestBucketLayout(t *testing.T) {
	samples := []int64{0, 1, 31, 32, 33, 100, 127, 128, 1000, 1 << 20, 1 << 40, math.MaxInt64}
	for _, v := range samples {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if up := bucketUpper(i); up < v {
			t.Fatalf("bucketUpper(%d)=%d < sample %d", i, up, v)
		}
		if i > 0 {
			if lo := bucketUpper(i - 1); lo >= v {
				t.Fatalf("sample %d not above previous bucket bound %d", v, lo)
			}
		}
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative sample bucket = %d, want 0", bucketIndex(-5))
	}
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucketUpper not increasing at %d: %d <= %d", i, up, prev)
		}
		prev = up
		if i >= histSubCount {
			lower := bucketUpper(i-1) + 1
			if width := up - lower + 1; float64(width)/float64(lower) > 1.0/float64(histHalf) {
				t.Fatalf("bucket %d relative width %d/%d exceeds 1/%d", i, width, lower, histHalf)
			}
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flexvc_test_ns")
	for _, v := range []int64{1, 1, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5052 {
		t.Fatalf("Count=%d Sum=%d, want 4/5052", h.Count(), h.Sum())
	}
	hs := r.Snapshot().Histograms["flexvc_test_ns"]
	if hs.Count != 4 || hs.Sum != 5052 || hs.SubBits != histSubBits {
		t.Fatalf("snapshot %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b[1]
	}
	if total != 4 {
		t.Fatalf("bucket sum %d != 4", total)
	}
	for i := 1; i < len(hs.Buckets); i++ {
		if hs.Buckets[i][0] <= hs.Buckets[i-1][0] {
			t.Fatalf("snapshot buckets not ascending: %v", hs.Buckets)
		}
	}
}

// TestSnapshotDeterministic locks the JSON encoding: two marshals of the same
// state are byte-identical (the -metrics-out files feed byte-level diffing in
// tests and CI).
func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"b_total", "a_total", "z_total"} {
		r.Counter(n).Add(3)
	}
	r.Gauge("g1").Set(4)
	r.Histogram("h_ns").Observe(99)
	r.SetValue("ratio", 1.5)
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot encoding not deterministic:\n%s\n%s", b1, b2)
	}
}

// TestMergePoolsMetrics: merging worker snapshots must behave like the pooled
// run — counters and histogram buckets add, gauges keep the max.
func TestMergePoolsMetrics(t *testing.T) {
	w1, w2 := NewRegistry(), NewRegistry()
	w1.Counter("c_total").Add(3)
	w2.Counter("c_total").Add(4)
	w1.Gauge("hwm").Set(10)
	w2.Gauge("hwm").Set(25)
	w1.Histogram("h_ns").Observe(100)
	w2.Histogram("h_ns").Observe(100)
	w2.Histogram("h_ns").Observe(1 << 30)
	w1.SetValue(`rate{worker="w1"}`, 120.5)
	w2.SetValue(`rate{worker="w2"}`, 99.5)
	w1.SetValue("shared", 3)
	w2.SetValue("shared", 8)

	agg := NewRegistry()
	if err := agg.Merge(w1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := agg.Merge(w2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if v := agg.Counter("c_total").Value(); v != 7 {
		t.Fatalf("merged counter = %d, want 7", v)
	}
	if v := agg.Gauge("hwm").Value(); v != 25 {
		t.Fatalf("merged gauge = %d, want 25", v)
	}
	h := agg.Histogram("h_ns")
	if h.Count() != 3 || h.Sum() != 200+1<<30 {
		t.Fatalf("merged histogram Count=%d Sum=%d", h.Count(), h.Sum())
	}
	vals := agg.Snapshot().Values
	if vals[`rate{worker="w1"}`] != 120.5 || vals[`rate{worker="w2"}`] != 99.5 {
		t.Fatalf("labeled static values lost in merge: %v", vals)
	}
	if vals["shared"] != 8 {
		t.Fatalf("shared static value = %v, want max 8", vals["shared"])
	}
}

// TestSetValueSnapshot: static values appear in snapshots, and setting a
// name again replaces its value (only Merge keeps the maximum).
func TestSetValueSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SetValue("static", 4.5)
	r.SetValue("both", 3)
	r.SetValue("both", 2)
	vals := r.Snapshot().Values
	if vals["static"] != 4.5 {
		t.Fatalf("static value = %v, want 4.5", vals["static"])
	}
	if vals["both"] != 2 {
		t.Fatalf("second SetValue did not replace the first: %v", vals["both"])
	}
}

func TestMergeRejectsCorruptSnapshots(t *testing.T) {
	cases := []Snapshot{
		{Histograms: map[string]HistogramSnapshot{"h": {SubBits: 99, Count: 1, Buckets: [][2]int64{{0, 1}}}}},
		{Histograms: map[string]HistogramSnapshot{"h": {SubBits: histSubBits, Count: 1, Buckets: [][2]int64{{-1, 1}}}}},
		{Histograms: map[string]HistogramSnapshot{"h": {SubBits: histSubBits, Count: 1, Buckets: [][2]int64{{histBuckets, 1}}}}},
		{Histograms: map[string]HistogramSnapshot{"h": {SubBits: histSubBits, Count: 1, Buckets: [][2]int64{{0, -1}}}}},
		{Histograms: map[string]HistogramSnapshot{"h": {SubBits: histSubBits, Count: 5, Buckets: [][2]int64{{0, 1}}}}},
	}
	for i, s := range cases {
		if err := NewRegistry().Merge(&s); err == nil {
			t.Fatalf("case %d: corrupt snapshot merged without error", i)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(11)
	r.Histogram("h_ns").Observe(500)
	path := filepath.Join(t.TempDir(), "metrics.json")
	read := func() Snapshot {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := WriteSnapshotFile(r, path); err != nil {
		t.Fatal(err)
	}
	if s := read(); s.Counters["c_total"] != 11 || s.Histograms["h_ns"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
	// A nil registry still writes a (valid, empty) snapshot file.
	if err := WriteSnapshotFile(nil, path); err != nil {
		t.Fatal(err)
	}
	if s := read(); len(s.Counters) != 0 {
		t.Fatalf("nil-registry snapshot: %+v", s)
	}
}

// TestConcurrentAccess hammers one registry from many goroutines; run with
// -race this verifies the atomics carry the whole synchronization burden.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			c := r.Counter("c_total")
			g := r.Gauge("hwm")
			h := r.Histogram("h_ns")
			for j := int64(0); j < 1000; j++ {
				c.Inc()
				g.SetMax(id*1000 + j)
				h.Observe(j)
			}
		}(int64(i))
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			_ = r.WriteJSON(&buf)
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if v := r.Counter("c_total").Value(); v != 8000 {
		t.Fatalf("counter = %d, want 8000", v)
	}
	if v := r.Gauge("hwm").Value(); v != 7999 {
		t.Fatalf("gauge hwm = %d, want 7999", v)
	}
	if v := r.Histogram("h_ns").Count(); v != 8000 {
		t.Fatalf("histogram count = %d, want 8000", v)
	}
}
