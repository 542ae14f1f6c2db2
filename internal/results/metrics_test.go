package results

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"flexvc/internal/obs"
)

// TestStoreMetrics: an attached registry sees every checkpoint write and
// flush, starts its record gauge at the records already indexed,
// and a nil registry detaches it again.
func TestStoreMetrics(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mkRecord("(a) UN", 0, 0, 0, 0, 0.5), time.Second); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	if n := reg.Gauge(MetricRecords).Value(); n != 1 {
		t.Errorf("record gauge starts at %d, want the 1 record already indexed", n)
	}
	if err := s.Put(mkRecord("(a) UN", 0, 0, 1, 0, 0.8), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name      string
		got, want int64
	}{
		{MetricRecords, reg.Gauge(MetricRecords).Value(), 2},
		{MetricPutLatency, reg.Histogram(MetricPutLatency).Count(), 1},
		{MetricFlushLatency, reg.Histogram(MetricFlushLatency).Count(), 1},
	} {
		if m.got != m.want {
			t.Errorf("%s = %d, want %d", m.name, m.got, m.want)
		}
	}

	s.SetMetrics(nil)
	if err := s.Put(mkRecord("(a) UN", 0, 0, 2, 0, 1.0), time.Second); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram(MetricPutLatency).Count(); n != 1 {
		t.Errorf("a detached registry still counts writes: %d, want 1", n)
	}
}

// TestDigestFile: a file's digest is the full sha256 of its bytes, and a
// missing file is an error, not an empty digest.
func TestDigestFile(t *testing.T) {
	const abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if got := DigestBytes([]byte("abc")); got != abc {
		t.Errorf("DigestBytes(abc) = %s, want %s", got, abc)
	}
	path := filepath.Join(t.TempDir(), "abc.txt")
	if err := os.WriteFile(path, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := DigestFile(path); err != nil || got != abc {
		t.Errorf("DigestFile = %s, %v, want %s", got, err, abc)
	}
	if _, err := DigestFile(path + ".missing"); err == nil {
		t.Error("DigestFile of a missing file did not error")
	}
}
