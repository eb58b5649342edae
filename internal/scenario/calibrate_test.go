package scenario

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCalibrationPointsCarryGivenSeeds: every cell of a grid runs at
// exactly the seeds it was given, in order — in Points and in the CSV's
// seed column — and a grid given none runs at seed 1 alone. The report
// scores and ranks what ran.
func TestCalibrationPointsCarryGivenSeeds(t *testing.T) {
	cal := DefaultCalibration()
	cal.Knobs, cal.Clients = cal.Knobs[:2], []int{30}
	cal.Horizon, cal.Warmup = 20*time.Minute, 5*time.Minute
	for _, seeds := range [][]int64{nil, {5, 2}} {
		cal.Seeds = seeds
		want := seeds
		if want == nil {
			want = []int64{1}
		}
		rep := cal.Run()
		perKnobs := map[string][]int64{}
		for _, p := range rep.Points {
			if p.Err != nil {
				t.Fatalf("seeds %v: cell %s: %v", seeds, p.Knobs.Name, p.Err)
			}
			perKnobs[p.Knobs.Name] = append(perKnobs[p.Knobs.Name], p.Seed)
		}
		var csvSeeds []int64
		for _, row := range strings.Split(strings.TrimSpace(rep.CSV()), "\n")[1:] {
			seed, err := strconv.ParseInt(strings.Split(row, ",")[2], 10, 64)
			if err != nil {
				t.Fatalf("seeds %v: CSV row %q: %v", seeds, row, err)
			}
			csvSeeds = append(csvSeeds, seed)
		}
		for i, k := range cal.Knobs {
			if got := perKnobs[k.Name]; !reflect.DeepEqual(got, want) {
				t.Errorf("seeds %v: %s ran seeds %v, want %v", seeds, k.Name, got, want)
			}
			if got := csvSeeds[i*len(want) : (i+1)*len(want)]; !reflect.DeepEqual(got, want) {
				t.Errorf("seeds %v: %s's CSV rows carry seeds %v, want %v", seeds, k.Name, got, want)
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
