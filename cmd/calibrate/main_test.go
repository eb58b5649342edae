package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestQuickGridAtTwoSeeds runs the compressed grid at -seeds 2: it must
// write its cells, and every cell must have run at exactly the seeds
// {1, 2} it was given.
func TestQuickGridAtTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("156-simulation grid in -short")
	}
	path := filepath.Join(t.TempDir(), "grid.csv")
	var out strings.Builder
	if err := run([]string{"-quick", "-seeds", "2", "-csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nselected: ") {
		t.Errorf("no selected knob set:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(rows[0], "seed")
	if col < 0 || len(rows) < 2 {
		t.Fatalf("grid has no seed column or no cells: %v", rows[0])
	}
	seeds := map[string]int{}
	for _, r := range rows[1:] {
		seeds[r[col]]++
	}
	if len(seeds) != 2 || seeds["1"] == 0 || seeds["1"] != seeds["2"] {
		t.Fatalf("cells per seed = %v, want the same count at exactly seeds 1 and 2", seeds)
	}
}

func TestZeroSeedsIsAnError(t *testing.T) {
	if err := run([]string{"-seeds", "0"}, new(strings.Builder)); err == nil {
		t.Fatal("-seeds 0 accepted")
	}
}
