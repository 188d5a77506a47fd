// Package bench is the experiment harness: it regenerates, for every
// theorem and figure of the paper, the table that certifies the claim on
// this implementation (experiment index E1–E29; see All). The
// cmd/td-experiments binary prints all tables; bench_test.go at the module
// root exposes one testing.B benchmark per experiment.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Profile scales experiments: Quick keeps every experiment below ~100ms
// for use inside benchmarks and CI; the full profile (Quick=false) runs
// the sizes cmd/td-experiments prints by default.
type Profile struct {
	Quick bool
	Seed  int64
	// Shards is the sharded engine worker count used by the engine
	// experiments (E22–E24) and the strategy arena (E28); 0 means
	// runtime.GOMAXPROCS(0), i.e. one worker per core — the same
	// contract as the CLIs' -shards flag. The scaling sweeps (E25, E26)
	// choose their own worker counts and ignore it.
	Shards int
}

// Table is one regenerated result table.
type Table struct {
	ID      string // experiment id, e.g. "E4a"
	Title   string
	Claim   string // the paper claim under test
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are rendered with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "── %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FitPowerLaw fits y ≈ a·x^b by least squares on logarithms and returns
// the exponent b. It ignores non-positive samples; fewer than two valid
// points yield NaN.
func FitPowerLaw(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// mark renders a boolean as a check or cross for table cells.
func mark(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}
