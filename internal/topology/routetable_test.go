package topology

import (
	"math/rand"
	"runtime"
	"testing"

	"flexvc/internal/packet"
)

// tableTopologies returns matching (fresh, precomputed) topology pairs for
// every supported topology shape and experiment scale. The fresh instance
// answers every query on the fly; the precomputed one through its tables.
func tableTopologies(t *testing.T) []struct {
	name         string
	plain, fast  Topology
	groupedPlain *Dragonfly
	groupedFast  *Dragonfly
} {
	t.Helper()
	var out []struct {
		name         string
		plain, fast  Topology
		groupedPlain *Dragonfly
		groupedFast  *Dragonfly
	}
	dfly := func(name string, p, a, h int) {
		plain, err := NewDragonfly(p, a, h)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewDragonfly(p, a, h)
		if err != nil {
			t.Fatal(err)
		}
		fast.PrecomputeTables(0)
		out = append(out, struct {
			name         string
			plain, fast  Topology
			groupedPlain *Dragonfly
			groupedFast  *Dragonfly
		}{name, plain, fast, plain, fast})
	}
	fbfly := func(name string, k, p int) {
		plain, err := NewFlattenedButterfly2D(k, p)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewFlattenedButterfly2D(k, p)
		if err != nil {
			t.Fatal(err)
		}
		fast.PrecomputeTables(0)
		out = append(out, struct {
			name         string
			plain, fast  Topology
			groupedPlain *Dragonfly
			groupedFast  *Dragonfly
		}{name, plain, fast, nil, nil})
	}

	dfly("dragonfly-tiny", 1, 2, 1)
	dfly("dragonfly-small", 2, 4, 2)
	dfly("dragonfly-medium", 4, 8, 4)
	fbfly("fbfly-4x4", 4, 2)
	fbfly("fbfly-8x8", 8, 8)
	return out
}

// TestRouteTableEquivalence is the table-vs-on-the-fly equivalence property:
// for every topology shape and scale, every routing query answered through
// the precomputed tables must be bit-identical to the on-the-fly computation.
// Pairs are checked exhaustively below 100 routers and by random sampling
// above.
func TestRouteTableEquivalence(t *testing.T) {
	for _, tc := range tableTopologies(t) {
		t.Run(tc.name, func(t *testing.T) {
			plain, fast := tc.plain, tc.fast
			n := plain.NumRouters()
			rng := rand.New(rand.NewSource(7))

			pairs := make([][2]packet.RouterID, 0, n*n)
			if n <= 100 {
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						pairs = append(pairs, [2]packet.RouterID{packet.RouterID(from), packet.RouterID(to)})
					}
				}
			} else {
				for i := 0; i < 20000; i++ {
					pairs = append(pairs, [2]packet.RouterID{
						packet.RouterID(rng.Intn(n)), packet.RouterID(rng.Intn(n)),
					})
				}
			}

			for _, pr := range pairs {
				from, to := pr[0], pr[1]
				if got, want := fast.NextMinimalPort(from, to), plain.NextMinimalPort(from, to); got != want {
					t.Fatalf("NextMinimalPort(%d,%d) = %d, want %d", from, to, got, want)
				}
				if got, want := fast.MinimalHops(from, to), plain.MinimalHops(from, to); got != want {
					t.Fatalf("MinimalHops(%d,%d) = %+v, want %+v", from, to, got, want)
				}
				if got, want := MinimalSeq(fast, from, to), MinimalSeq(plain, from, to); got != want {
					t.Fatalf("MinimalSeq(%d,%d) differs", from, to)
				}
			}

			for r := 0; r < n; r++ {
				rid := packet.RouterID(r)
				for p := 0; p < plain.Radix(); p++ {
					if got, want := fast.PortKind(rid, p), plain.PortKind(rid, p); got != want {
						t.Fatalf("PortKind(%d,%d) = %v, want %v", r, p, got, want)
					}
					if plain.PortKind(rid, p) == Terminal {
						continue
					}
					gr, gp := fast.Neighbor(rid, p)
					wr, wp := plain.Neighbor(rid, p)
					if gr != wr || gp != wp {
						t.Fatalf("Neighbor(%d,%d) = (%d,%d), want (%d,%d)", r, p, gr, gp, wr, wp)
					}
				}
			}

			if tc.groupedPlain != nil {
				g := tc.groupedPlain.NumGroups()
				for fg := 0; fg < g; fg++ {
					for tg := 0; tg < g; tg++ {
						gr, gp, gok := tc.groupedFast.MinimalGlobalLink(fg, tg)
						wr, wp, wok := tc.groupedPlain.MinimalGlobalLink(fg, tg)
						if gr != wr || gp != wp || gok != wok {
							t.Fatalf("MinimalGlobalLink(%d,%d) = (%d,%d,%v), want (%d,%d,%v)",
								fg, tg, gr, gp, gok, wr, wp, wok)
						}
					}
				}
			}

			if err := Validate(fast); err != nil {
				t.Fatalf("precomputed topology fails validation: %v", err)
			}
		})
	}
}

// TestRouteTableFootprint pins what precomputation costs: at every
// Dragonfly scale, the bytes PrecomputeTables allocates stay within the
// per-port neighbour table plus the group-link table, both linear in the
// network's size, so no O(routers^2) table can come back unnoticed (at
// medium one would be tens of times larger). Any value but a negative one
// installs the tables; a negative one removes them.
func TestRouteTableFootprint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p, a, h int
	}{
		{"tiny", 1, 2, 1},
		{"small", 2, 4, 2},
		{"medium", 4, 8, 4},
		{"paper", 8, 16, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDragonfly(tc.p, tc.a, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			// int32 router plus int16 port per entry; an eighth for size-class
			// rounding and a little for the table header.
			entries := d.NumRouters()*d.Radix() + d.NumGroups()*d.NumGroups()
			limit := uint64(entries*6)*9/8 + 256

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			installed := d.PrecomputeTables(0)
			runtime.ReadMemStats(&after)
			if !installed || d.tables == nil {
				t.Fatal("PrecomputeTables(0) must install the tables")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Fatalf("PrecomputeTables allocated %d bytes, over the %d of the per-port and group-link tables (%d routers, %d groups)",
					got, limit, d.NumRouters(), d.NumGroups())
			}

			if !d.PrecomputeTables(1) || d.tables == nil {
				t.Fatal("a positive value must install the tables")
			}
			if d.PrecomputeTables(-1) || d.tables != nil {
				t.Fatal("a negative value must remove the installed tables")
			}
		})
	}
}
