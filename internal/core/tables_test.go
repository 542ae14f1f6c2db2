package core

import (
	"testing"

	"flexvc/internal/topology"
)

// TestTableI checks Table I of the paper cell by cell: allowed paths using
// FlexVC in a generic diameter-2 network with 2-5 VCs.
func TestTableI(t *testing.T) {
	want := [][]string{
		{"safe", "safe", "safe", "safe"},    // MIN
		{"X", "opport.", "safe", "safe"},    // VAL
		{"X", "opport.", "opport.", "safe"}, // PAR
	}
	checkTable(t, TableI(), want)
}

// TestTableII checks Table II: request-reply protocol deadlock avoidance in a
// generic diameter-2 network (cells show the request-path classification).
func TestTableII(t *testing.T) {
	want := [][]string{
		{"safe", "safe", "safe", "safe", "safe"},
		{"X", "opport.", "opport.", "safe", "safe"},
		{"X", "opport.", "opport.", "opport.", "safe"},
	}
	checkTable(t, TableII(), want)
}

// TestTableIII checks Table III: a diameter-3 Dragonfly with local/global
// link-type restrictions.
func TestTableIII(t *testing.T) {
	want := [][]string{
		{"safe", "safe", "safe", "safe", "safe", "safe"},
		{"X", "X", "X", "opport.", "safe", "safe"},
		{"X", "X", "X", "opport.", "opport.", "safe"},
	}
	checkTable(t, TableIII(), want)
}

// TestTableIV checks Table IV: the Dragonfly with protocol deadlock
// avoidance; cells show request / reply classifications.
func TestTableIV(t *testing.T) {
	want := [][]string{
		{"safe", "safe", "safe", "safe"},
		{"X / opport.", "opport.", "safe", "safe"},
		{"X / opport.", "opport.", "opport.", "safe"},
	}
	checkTable(t, TableIV(), want)
}

func checkTable(t *testing.T, table Table, want [][]string) {
	t.Helper()
	if len(table.Cells) != len(want) {
		t.Fatalf("%s: %d rows, want %d", table.Title, len(table.Cells), len(want))
	}
	for i, row := range want {
		if len(table.Cells[i]) != len(row) {
			t.Fatalf("%s row %s: %d columns, want %d", table.Title, table.RowLabels[i], len(table.Cells[i]), len(row))
		}
		for j, cell := range row {
			if table.Cells[i][j] != cell {
				t.Errorf("%s [%s, %s] = %q, want %q",
					table.Title, table.RowLabels[i], table.ColLabels[j], table.Cells[i][j], cell)
			}
		}
	}
	if r := table.Render(); len(r) == 0 {
		t.Error("empty table rendering")
	}
}

// TestReferencePaths checks the reference builder against the paper's path
// shapes.
func TestReferencePaths(t *testing.T) {
	df, _ := topology.NewDragonfly(1, 2, 1)
	fb, _ := topology.NewFlattenedButterfly2D(2, 1)

	if hops := Reference(df, ModeMIN).Hops(); hops != (topology.HopCount{Local: 2, Global: 1}) {
		t.Errorf("dragonfly MIN reference hops = %+v", hops)
	}
	if hops := Reference(df, ModeVAL).Hops(); hops != (topology.HopCount{Local: 4, Global: 2}) {
		t.Errorf("dragonfly VAL reference hops = %+v", hops)
	}
	if hops := Reference(df, ModePAR).Hops(); hops != (topology.HopCount{Local: 5, Global: 2}) {
		t.Errorf("dragonfly PAR reference hops = %+v", hops)
	}
	if hops := Reference(fb, ModeVAL).Hops(); hops != (topology.HopCount{Local: 4}) {
		t.Errorf("fbfly VAL reference hops = %+v", hops)
	}
	ref := Reference(df, ModeVAL)
	if ref.Len() != len(ref.EscapeAfter) {
		t.Fatal("escape list length mismatch")
	}
	// The escape after the last hop is empty; escapes never exceed the
	// diameter.
	last := ref.EscapeAfter[ref.Len()-1]
	if last.Total() != 0 {
		t.Errorf("escape after the final hop should be empty, got %+v", last)
	}
	for i, esc := range ref.EscapeAfter {
		if esc.Local > 2 || esc.Global > 1 {
			t.Errorf("escape %d exceeds the diameter: %+v", i, esc)
		}
	}
}

func TestRouteClassString(t *testing.T) {
	if Safe.String() != "safe" || Opportunistic.String() != "opport." || Forbidden.String() != "X" {
		t.Error("RouteClass.String broken")
	}
	if ModeMIN.String() != "MIN" || ModeVAL.String() != "VAL" || ModePAR.String() != "PAR" {
		t.Error("RoutingMode.String broken")
	}
}
