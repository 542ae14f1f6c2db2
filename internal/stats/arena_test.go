package stats

import "testing"

// TestArenaCarvesAndRecycles: arena slices come back zeroed and
// capacity-clamped, a request larger than a block gets a block of its own,
// and after Reset the same requests reuse the blocks already owned.
func TestArenaCarvesAndRecycles(t *testing.T) {
	a := NewArena()
	if a.Int64(0) != nil || a.Float64(0) != nil {
		t.Error("zero-length requests should return nil")
	}
	carve := func() {
		i := a.Int64(10)
		f := a.Float64(10)
		big := a.Int64(arenaBlockWords + 1)
		if len(i) != 10 || cap(i) != 10 || len(f) != 10 || cap(f) != 10 || len(big) != arenaBlockWords+1 {
			t.Fatalf("lengths/capacities %d/%d, %d/%d, %d", len(i), cap(i), len(f), cap(f), len(big))
		}
		for k := range i {
			if i[k] != 0 || f[k] != 0 {
				t.Fatal("arena slice not zeroed")
			}
			i[k], f[k] = 7, 7
		}
	}
	carve()
	footprint := a.Footprint()
	if want := 8 * (2*arenaBlockWords + arenaBlockWords + 1); footprint != want {
		t.Errorf("footprint %d bytes, want %d (one int64 block, one oversized, one float64 block)", footprint, want)
	}
	a.Reset()
	carve()
	if a.Footprint() != footprint {
		t.Errorf("footprint grew from %d to %d bytes across Reset", footprint, a.Footprint())
	}
}

// TestArenaBackedTimeSeries: a collector carving its time series from an
// arena summarizes a series that survives the arena's Reset.
func TestArenaBackedTimeSeries(t *testing.T) {
	a := NewArena()
	c := NewCollectorIn(a, 4, 0, 1000)
	if err := c.EnableTimeSeries(100, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableTimeSeries(0, 1000, nil); err == nil {
		t.Error("a zero window was accepted")
	}
	res := c.Summarize(0.5, 1000, false)
	if res.Series == nil || len(res.Series.Phits) != 10 {
		t.Fatalf("summarized series %+v, want 10 windows", res.Series)
	}
	a.Reset()
	reused := a.Int64(40) // the block the series' windows were carved from
	for k := range reused {
		reused[k] = 1
	}
	if res.Series.Phits[0] != 0 || res.Series.Packets[0] != 0 {
		t.Error("the summarized series still aliases the arena")
	}
}
