package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T0",
		Title:   "demo",
		Claim:   "demonstration",
		Columns: []string{"a", "bbbb"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("long-cell", true)
	tbl.Notes = append(tbl.Notes, "a note")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T0", "demo", "demonstration", "long-cell", "2.500", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 3·x²
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if b := FitPowerLaw(xs, ys); math.Abs(b-2) > 1e-9 {
		t.Fatalf("exponent %f, want 2", b)
	}
	// Degenerate inputs.
	if !math.IsNaN(FitPowerLaw([]float64{1}, []float64{1})) {
		t.Fatal("single point should be NaN")
	}
	if !math.IsNaN(FitPowerLaw([]float64{2, 2}, []float64{1, 5})) {
		t.Fatal("vertical data should be NaN")
	}
	if !math.IsNaN(FitPowerLaw([]float64{-1, 0}, []float64{1, 1})) {
		t.Fatal("non-positive xs should be skipped")
	}
}

// TestAllExperimentsQuick runs every experiment on the quick profile and
// checks each produced a populated table with no invariant violations.
// This is the end-to-end smoke test of the whole reproduction.
func TestAllExperimentsQuick(t *testing.T) {
	tables := All(Profile{Quick: true, Seed: 42})
	if len(tables) < 14 {
		t.Fatalf("only %d tables produced", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if seen[tbl.ID] {
			t.Fatalf("duplicate experiment id %s", tbl.ID)
		}
		seen[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "VIOLATED") || strings.Contains(cell, "error") {
					t.Fatalf("%s reports a violation: %v", tbl.ID, row)
				}
			}
		}
	}
	for _, id := range []string{
		"E1", "E2", "E3", "E4a", "E4b", "E5", "E6", "E7", "E8a", "E8b", "E9",
		"E10a", "E10b", "E11", "E12", "E13", "E14",
		"E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22",
		"E23", "E24", "E25", "E26", "E28", "E29",
	} {
		if !seen[id] {
			t.Fatalf("experiment %s missing", id)
		}
	}
}
