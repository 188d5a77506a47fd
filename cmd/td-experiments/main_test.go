package main

import (
	"slices"
	"testing"

	"tokendrop/internal/bench"
)

func TestSelectTables(t *testing.T) {
	tables := []*bench.Table{{ID: "E1"}, {ID: "E4a"}, {ID: "E28"}, {ID: "E29"}}
	for _, c := range []struct {
		only    string
		kept    []string
		unknown []string
	}{
		{"", []string{"E1", "E4a", "E28", "E29"}, nil},
		{" , ", []string{"E1", "E4a", "E28", "E29"}, nil},
		{"E28", []string{"E28"}, nil},
		{"e4A, E1", []string{"E1", "E4a"}, nil},
		{"E28,E28", []string{"E28"}, nil},
		{"E99", nil, []string{"E99"}},
		{"E1,E99,e4,E29", []string{"E1", "E29"}, []string{"E99", "e4"}},
	} {
		kept, unknown := selectTables(tables, c.only)
		var ids []string
		for _, tbl := range kept {
			ids = append(ids, tbl.ID)
		}
		if !slices.Equal(ids, c.kept) || !slices.Equal(unknown, c.unknown) {
			t.Errorf("-only %q: kept %v, unknown %v; want %v, %v", c.only, ids, unknown, c.kept, c.unknown)
		}
	}
}
