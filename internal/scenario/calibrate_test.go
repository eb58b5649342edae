package scenario

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"compilegate/internal/harness"
)

// TestCalibrationPointsCarryGivenSeeds: every cell of a grid runs at
// exactly the seeds it was given, in order — in its replication and in
// the CSV's seed column — and the default grid runs at seed 1 alone. The
// report scores and ranks what ran.
func TestCalibrationPointsCarryGivenSeeds(t *testing.T) {
	cal := DefaultCalibration()
	cal.Knobs, cal.Clients = cal.Knobs[:2], []int{30}
	cal.Horizon, cal.Warmup = 20*time.Minute, 5*time.Minute
	for _, seeds := range [][]int64{cal.Seeds, {5, 2}} {
		cal.Seeds = seeds
		rep := cal.Run()
		var csvSeeds []int64
		for _, row := range strings.Split(strings.TrimSpace(rep.CSV()), "\n")[1:] {
			seed, err := strconv.ParseInt(strings.Split(row, ",")[2], 10, 64)
			if err != nil {
				t.Fatalf("seeds %v: CSV row %q: %v", seeds, row, err)
			}
			csvSeeds = append(csvSeeds, seed)
		}
		if len(rep.Cells) != len(cal.Knobs) {
			t.Fatalf("seeds %v: %d cells, want %d", seeds, len(rep.Cells), len(cal.Knobs))
		}
		for i, cell := range rep.Cells {
			if cell.Rep.Err != nil {
				t.Fatalf("seeds %v: cell %s: %v", seeds, cell.Knobs.Name, cell.Rep.Err)
			}
			var got []int64
			for _, run := range cell.Rep.Runs {
				if run.Twin == nil {
					t.Fatalf("seeds %v: cell %s seed %d ran without its baseline", seeds, cell.Knobs.Name, run.Seed)
				}
				got = append(got, run.Seed)
			}
			if cell.Knobs.Name != cal.Knobs[i].Name || !reflect.DeepEqual(got, seeds) {
				t.Errorf("seeds %v: cell %d (%s) ran seeds %v", seeds, i, cell.Knobs.Name, got)
			}
			if got := csvSeeds[i*len(seeds) : (i+1)*len(seeds)]; !reflect.DeepEqual(got, seeds) {
				t.Errorf("seeds %v: %s's CSV rows carry seeds %v", seeds, cell.Knobs.Name, got)
			}
		}
		best, score := rep.Best()
		if ranking := rep.Ranking(); len(ranking) != len(cal.Knobs) || ranking[0] != best.Name || rep.Score(best.Name) != score {
			t.Errorf("seeds %v: ranking %v disagrees with best %s (score %.3f)", seeds, ranking, best.Name, score)
		}
		if md := rep.Markdown(); !strings.Contains(md, "### "+best.Name) {
			t.Errorf("seeds %v: markdown has no table for %s:\n%s", seeds, best.Name, md)
		}
	}
}

// TestCalibrationScoresWithTheThroughputRatio: cells score with
// MetricThroughputRatio, so a starved baseline meets the "at least"
// targets at 35 and 40 clients and misses 30's exact 1.35 by RatioCap;
// a failed cell is a total miss.
func TestCalibrationScoresWithTheThroughputRatio(t *testing.T) {
	cell := func(clients int, th, ba int64, err error) CalibrationCell {
		run := SeedRun{Seed: 1, Result: &harness.Result{Completed: th}, Twin: &harness.Result{Completed: ba}}
		return CalibrationCell{Knobs: PressureKnobs{Name: "k"}, Clients: clients,
			Rep: &ReplicationReport{Runs: []SeedRun{run}, Err: err}}
	}
	for _, tc := range []struct {
		cell CalibrationCell
		want float64
	}{
		{cell(35, 500, 0, nil), 0},
		{cell(40, 500, 0, nil), 0},
		{cell(30, 500, 0, nil), (RatioCap - 1.35) * (RatioCap - 1.35)},
		{cell(30, 270, 200, nil), 0},
		{cell(40, 100, 100, nil), 0.25},
		{cell(40, 500, 0, errors.New("cell failed")), 1.5 * 1.5},
	} {
		rep := &CalibrationReport{Cells: []CalibrationCell{tc.cell}}
		if got := rep.Score("k"); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%d clients, %d vs %d (err %v): score %v, want %v", tc.cell.Clients,
				tc.cell.Rep.Runs[0].Result.Completed, tc.cell.Rep.Runs[0].Twin.Completed, tc.cell.Rep.Err, got, tc.want)
		}
	}
}
