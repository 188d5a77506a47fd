// Command td-experiments regenerates every experiment table of the
// reproduction (index E1–E29 in internal/bench): one table per
// theorem/figure of "Efficient Load-Balancing through Distributed Token
// Dropping" (SPAA 2021), plus the ablations, the engine-parity
// certificates (E22–E24), the shard-scaling sweeps of the bare engine
// (E25) and the whole phase loops (E26), and the baseline strategy
// arena's Pareto report (E28), and the multi-process transport wire-cost
// report (E29). It exits 1 when a printed table reports a violated
// claim, and 2 when an -only id matches no table.
//
// Usage:
//
//	td-experiments [-quick] [-seed N] [-only E7] [-shards N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tokendrop/internal/bench"
	"tokendrop/internal/cliutil"
)

func main() {
	quick := flag.Bool("quick", false, "small instance sizes (sub-second total)")
	seed := flag.Int64("seed", 42, "base seed for all workloads")
	only := flag.String("only", "", "comma-separated ids of the experiment tables to print (e.g. E4a,E7); every experiment still runs; empty = all")
	shards := cliutil.ShardsFlag()
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersionFlag(version)

	p := bench.Profile{Quick: *quick, Seed: *seed, Shards: *shards}
	tables, unknown := selectTables(bench.All(p), *only)
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "td-experiments: -only: no experiment table %s\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	fmt.Printf("token dropping reproduction — experiment tables (quick=%v seed=%d)\n\n", *quick, *seed)
	violations := 0
	for _, tbl := range tables {
		tbl.Render(os.Stdout)
		for _, row := range tbl.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "VIOLATED") || strings.Contains(cell, "error") {
					violations++
				}
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "%d claim violations detected\n", violations)
		os.Exit(1)
	}
}

// selectTables keeps, in order, the tables whose id is listed in only
// (comma-separated, case-insensitive; an empty list keeps every table)
// and returns the listed ids that match no table.
func selectTables(tables []*bench.Table, only string) (kept []*bench.Table, unknown []string) {
	matched := map[string]bool{}
	var ids []string
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			matched[strings.ToUpper(id)] = false
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return tables, nil
	}
	for _, tbl := range tables {
		if _, ok := matched[strings.ToUpper(tbl.ID)]; ok {
			matched[strings.ToUpper(tbl.ID)] = true
			kept = append(kept, tbl)
		}
	}
	for _, id := range ids {
		if !matched[strings.ToUpper(id)] {
			unknown = append(unknown, id)
		}
	}
	return kept, unknown
}
